"""One measured run of one workload, in a process of its own.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/worker.py --probe-setup NAME

`run.py` starts this file; it is not meant to be run by hand. The process
caps its own address space first, so that a runaway allocation raises
MemoryError inside one request, which is counted as a failure, instead of
exhausting the machine. It prints one JSON object as its last line.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter

from tracer import MODULES, Tracer
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
ADDRESS_SPACE_LIMIT = 2 << 30  # bytes
MIN_JOBS = 3
# On the 2-CPU virtual machine the benchmark was defined on, speed changed by
# up to 2x within minutes, in fast and slow spells lasting seconds, so raw
# times from two runs were not comparable. Times are therefore reported in
# reference seconds: every stretch of requests is scaled by CALIBRATION_REF_S
# over the time `calibrate()` took just before and just after it. The
# calibration never touches coxsph, so a change to the program cannot move
# it. Stretches are at most CALIBRATION_INTERVAL_S long, unless one request
# takes longer.
CALIBRATION_ROUNDS = 2000
CALIBRATION_REF_S = 0.008
CALIBRATION_INTERVAL_S = 0.25


def import_program():
    """Import coxsph from this checkout's src/, and nothing installed elsewhere."""
    src = ROOT / "src"
    if not (src / "coxsph" / "__init__.py").is_file():
        raise SystemExit(f"error: no coxsph package under {src}")
    sys.path.insert(0, str(src))
    package = importlib.import_module("coxsph")
    for name in MODULES:
        importlib.import_module(f"coxsph.{name}")
    if Path(package.__file__).resolve().parent != src / "coxsph":
        raise SystemExit(f"error: imported coxsph from {package.__file__}")
    return package


def module_caches(package):
    """Every module-level functools cache of the program."""
    seen = {}
    for name in MODULES:
        for obj in vars(getattr(package, name)).values():
            if hasattr(obj, "cache_clear"):
                seen[id(obj)] = obj
    return list(seen.values())


def calibrate():
    """Seconds for a fixed loop of tuple, dict and integer work in pure Python."""
    start = perf_counter()
    n = 64
    p = tuple((5 * i + 3) % n for i in range(n))
    q, seen = p, {}
    for _ in range(CALIBRATION_ROUNDS):
        q = tuple([p[i] for i in q])
        seen[q] = seen.get(q, 0) + 1
    return perf_counter() - start


def to_reference(before, after):
    """Factor from seconds to reference seconds, given the calibrations."""
    return 2 * CALIBRATION_REF_S / (before + after)


def probe_setup(workload_name):
    """Reference seconds to import coxsph and build the workload's systems."""
    before = calibrate()
    start = perf_counter()
    package = import_program()
    for type_string in WORKLOADS[workload_name].systems:
        package.coxeter.coxeter_system(type_string)
    elapsed = perf_counter() - start
    return elapsed * to_reference(before, calibrate())


class Runner:
    """Sends a workload's jobs and keeps what the checks need."""

    def __init__(self, package, workload, requests):
        self.cx = package
        self.workload = workload
        self.requests = requests
        self.caches = module_caches(package)
        self.reference = None  # records of the first job
        self.failed_per_job = None
        self.extra_failed = 0  # failures in jobs whose outputs differ from the first
        self.jobs = 0

    def job(self):
        """One job from a cold start: (reference seconds, latencies, outputs).

        The job's time is the sum of its request latencies, each in
        reference seconds; the calibrations between stretches are not timed.
        """
        for cache in self.caches:
            cache.cache_clear()
        gc.collect()
        call, cx = self.workload.call, self.cx
        outputs, latencies, stretch = [], [], []
        before = calibrate()
        stretch_start = perf_counter()
        for request in self.requests:
            start = perf_counter()
            try:
                out = call(cx, request)
            except Exception as exc:  # a failed request is counted, not fatal
                out = exc
            end = perf_counter()
            stretch.append(end - start)
            outputs.append(out)
            if end - stretch_start >= CALIBRATION_INTERVAL_S:
                after = calibrate()
                latencies.extend(x * to_reference(before, after) for x in stretch)
                stretch, before, stretch_start = [], after, perf_counter()
        if stretch:
            after = calibrate()
            latencies.extend(x * to_reference(before, after) for x in stretch)
        return sum(latencies), latencies, outputs

    def check(self, outputs):
        """Compare with the first job; verify outputs seen for the first time."""
        self.jobs += 1
        records = [
            ("error", repr(out)) if isinstance(out, Exception) else self.workload.record(out)
            for out in outputs
        ]
        if self.reference is None:
            self.reference = records
            self.failed_per_job = self._verify(outputs)
        elif records != self.reference:
            self.extra_failed += self._verify(outputs) - self.failed_per_job

    def _verify(self, outputs) -> int:
        failed = 0
        for request, out in zip(self.requests, outputs):
            if isinstance(out, Exception):
                failed += 1
                continue
            try:
                ok = self.workload.verify(self.cx, request, out)
            except Exception:
                ok = False
            failed += not ok
        return failed

    @property
    def attempted(self):
        return self.jobs * len(self.requests)

    @property
    def failed(self):
        return self.jobs * self.failed_per_job + self.extra_failed


def cap_address_space():
    """Make allocations beyond ADDRESS_SPACE_LIMIT raise MemoryError here."""
    resource.setrlimit(resource.RLIMIT_AS, (ADDRESS_SPACE_LIMIT, ADDRESS_SPACE_LIMIT))


def percentile(values, q):
    """The q-th percentile, interpolated between samples."""
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def measure(runner, seconds):
    walls, latencies = [], []
    deadline = perf_counter() + seconds
    while len(walls) < MIN_JOBS or perf_counter() < deadline:
        wall, lat, outputs = runner.job()
        runner.check(outputs)
        walls.append(wall)
        latencies.extend(lat)
    return {
        "wall_s": statistics.median(walls),
        "request_p50_ms": 1000 * statistics.median(latencies),
        "request_p90_ms": 1000 * percentile(latencies, 90),
    }, {"job_walls": walls, "requests_timed": len(latencies)}


def measure_traced(runner, package, seconds):
    """Traced and untraced jobs, alternated; per-layer medians over traced jobs."""
    tracer = Tracer(package)
    plain, traced, layers = [], [], []
    deadline = perf_counter() + seconds
    while len(traced) < MIN_JOBS or perf_counter() < deadline:
        wall, _, outputs = runner.job()
        runner.check(outputs)
        plain.append(wall)
        tracer.reset()
        tracer.install()
        try:
            wall, _, outputs = runner.job()
        finally:
            tracer.uninstall()
        runner.check(outputs)
        traced.append(wall)
        layers.append(tracer.layer_metrics())
    # Counts repeat exactly from job to job; median_low keeps them whole.
    metrics = {
        name: (statistics.median if name.endswith("_s") else statistics.median_low)(
            [job[name] for job in layers])
        for name in layers[0]
    }
    metrics["trace.wall_s"] = statistics.fmean(traced)
    metrics["trace.overhead_s"] = metrics["trace.wall_s"] - statistics.fmean(plain)
    spans = [[name, round(start, 6), round(dur, 6), rid] for name, start, dur, rid in tracer.spans]
    return metrics, {"jobs": len(traced), "untraced_jobs": len(plain), "last_job_spans": spans}


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--probe-setup", metavar="WORKLOAD")
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    cap_address_space()
    if args.probe_setup:
        print(json.dumps({"setup_s": probe_setup(args.probe_setup)}))
        return 0

    package = import_program()
    workload = WORKLOADS[args.workload]
    runner = Runner(package, workload, workload.requests(args.seed))
    if args.trace:
        metrics, info = measure_traced(runner, package, args.seconds)
    else:
        metrics, info = measure(runner, args.seconds)
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    info["requests_per_job"] = len(runner.requests)
    print(json.dumps({
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": metrics,
        "info": info,
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
