"""The coxsph benchmark.

Measure one workload (run from the repository root):

    python3 perfbench/run.py --workload census --seed 1 --seconds 22 --trace 0

prints the end-to-end metrics of BENCHMARK.json (`--trace 1`: the per-layer
metrics) as one JSON object on its last line, and appends the run, with a
manifest of the machine and the code, to perfbench/results/runs.jsonl.

Compare two result files, row by row:

    python3 perfbench/run.py --compare OLD.jsonl NEW.jsonl

See perfbench/README.md for the workloads and the metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
DEFAULT_RESULTS = HERE / "results" / "runs.jsonl"
SETUP_PROBES = 5
PROBE_TIMEOUT_S = 60
RUN_TIMEOUT_S = 150
# Fixed hash seed: set and dict orders of strings repeat from run to run.
CHILD_ENV = {**os.environ, "PYTHONHASHSEED": "0"}


class BenchError(Exception):
    """The benchmark could not produce a result."""


def load_spec():
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def run_child(args, timeout):
    """Run the worker; its last stdout line is a JSON object."""
    try:
        done = subprocess.run(
            [sys.executable, str(WORKER), *args], cwd=ROOT, env=CHILD_ENV,
            capture_output=True, text=True, timeout=timeout,
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker {' '.join(args)} timed out after {timeout}s") from None
    if done.returncode != 0 or not done.stdout.strip():
        raise BenchError(
            f"worker {' '.join(args)} exited with {done.returncode}: {done.stderr.strip()[-2000:]}"
        )
    return json.loads(done.stdout.strip().splitlines()[-1])


def source_sha256():
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def git_sha():
    """HEAD of the git checkout at ROOT, read from .git; None without one."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def manifest(args, argv):
    return {
        "git_sha": git_sha(),
        "source_sha256": source_sha256(),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
        "seed": args.seed,
        "argv": [Path(sys.argv[0]).name, *argv],
        "COXSPH_ENUM_CAP": os.environ.get("COXSPH_ENUM_CAP"),
    }


def measure(args, spec):
    worker_args = ["--workload", args.workload, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(args.trace)]
    metrics, info = {}, {}
    if not args.trace:
        setups = [
            run_child(["--probe-setup", args.workload], PROBE_TIMEOUT_S)["setup_s"]
            for _ in range(SETUP_PROBES)
        ]
        metrics["setup_s"] = statistics.median(setups)
        info["setup_s_samples"] = setups
    got = run_child(worker_args, RUN_TIMEOUT_S)
    metrics.update(got["metrics"])
    info.update(got["info"])
    attempted, failed = got["attempted"], got["failed"]
    metrics["verified_ratio"] = (attempted - failed) / attempted
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing:
        raise BenchError(f"no value for metrics {missing}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted},
    }
    return result, info


# -- compare ------------------------------------------------------------------


def read_runs(path):
    with open(path) as fh:
        return [json.loads(line) for line in fh if line.strip()]


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def compare(old_path, new_path, spec, out=sys.stdout):
    """Per (workload, metric): both sides' median and quartiles, and the ratio.

    A row is "unresolved" when either side's quartile spread, as a share of
    its median, is wider than the metric's bound (0.25 for metrics without
    one), so that the two medians cannot be told apart.
    """
    bounds = {m["name"]: m.get("bound", 0.25) for m in spec["end_to_end"] + spec["per_layer"]}
    sides = []
    for path in (old_path, new_path):
        values = {}
        for run in read_runs(path):
            for name, metric in run["result"]["metrics"].items():
                values.setdefault((run["workload"], name), []).append(metric["value"])
        sides.append(values)
    old, new = sides
    out.write(f"{'workload':<12} {'metric':<48} {'old q1/med/q3':>30} {'new q1/med/q3':>30} "
              f"{'ratio':>7}  note\n")
    for key in sorted(set(old) & set(new)):
        a, b = quartiles(old[key]), quartiles(new[key])
        spreads = [(q3 - q1) / abs(med) if med else 0.0 for q1, med, q3 in (a, b)]
        ratio = b[1] / a[1] if a[1] else float("nan")
        note = "unresolved" if max(spreads) > bounds[key[1]] else ""
        out.write(
            f"{key[0]:<12} {key[1]:<48} {'/'.join(f'{v:.4g}' for v in a):>30} "
            f"{'/'.join(f'{v:.4g}' for v in b):>30} {ratio:7.3f}  {note}\n"
        )
    for key in sorted(set(old) ^ set(new)):
        out.write(f"{key[0]:<12} {key[1]:<48} only in {'old' if key in old else 'new'}\n")


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    p = argparse.ArgumentParser(description="Run or compare the coxsph benchmark.")
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=int, default=None)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--results", default=str(DEFAULT_RESULTS),
                   help="JSON-lines file the run is appended to")
    p.add_argument("--compare", nargs=2, metavar=("OLD", "NEW"))
    args = p.parse_args(argv)
    try:
        spec = load_spec()
        if args.compare:
            compare(*args.compare, spec)
            return 0
        if not (ROOT / "src" / "coxsph" / "__init__.py").is_file():
            raise BenchError(f"no coxsph sources under {ROOT / 'src'}")
        if args.workload not in {w["name"] for w in spec["workloads"]}:
            raise BenchError(f"unknown workload {args.workload!r}")
        if args.seconds is None:
            args.seconds = spec["run_seconds"]
        result, info = measure(args, spec)
    except (BenchError, OSError, ValueError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    record = {"workload": args.workload, "trace": args.trace, "manifest": manifest(args, argv),
              "result": result, "info": info}
    results = Path(args.results)
    results.parent.mkdir(parents=True, exist_ok=True)
    with open(results, "a") as fh:
        fh.write(json.dumps(record) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
