"""steenrips benchmark: one workload, one seed, a fixed measuring window.

    python3 benchmarks/run.py --workload rp2-sq1 --seed 1 --seconds 35 --trace 0

Jobs run back to back in one process (a closed loop with one client),
on the seed's pool of instances until ``--seconds`` have passed; each
job's output is checked.  Each untraced job is bracketed by a fixed
reference loop, and job times are reported scaled to a host on which
that loop takes ``REF_S`` seconds, which cancels the swings in speed of
a shared host.  With ``--trace 0`` the end-to-end metrics are
reported; with ``--trace 1`` each job runs its instance both untraced
and traced (alternating which comes first), with single-layer probes
after the traced job, and the per-layer metrics are reported.
The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
import traceback

import bench_setup

SETUP_REPEATS = 3
REF_S = 0.04
_REF_TABLE = list(range(4096))
GOLDENS = bench_setup.HERE / "goldens.json"
TRACE_DIR = bench_setup.ROOT / ".bench_out"
LAYER_TIMES = (
    "metric.validate", "metric.vr", "simplicial.build", "simplicial.coboundary",
    "gf2.rank", "cohomology.barcode", "steenrod.sq", "operations.image",
    "operations.kernel", "distances.bottleneck",
)


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=35.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def child_setup(workload: str, seed: int) -> float:
    """One set-up in a fresh interpreter; returns its own timing."""
    proc = subprocess.run(
        [sys.executable, str(bench_setup.HERE / "bench_setup.py"), workload, str(seed)],
        capture_output=True, text=True, timeout=120, cwd=bench_setup.ROOT, check=True,
    )
    return float(proc.stdout.split()[-1])


def reference_s() -> float:
    """Seconds of a fixed pure-Python loop: integer arithmetic and list
    indexing, which allocates nothing the garbage collector tracks, so
    the library's live objects do not slow it."""
    start = time.perf_counter()
    x, table = 0, _REF_TABLE
    for i in range(150_000):
        x = (x ^ table[(x + i) & 4095]) * 2654435761 & 0xFFFFFFFF
    return time.perf_counter() - start


class Run:
    """Job loop state: untraced job times (raw, and scaled by the reference
    loop), each instance's checked result, failures and (traced) per-job
    layer values."""

    def __init__(self, wl, pool, seed, goldens, tracer):
        self.wl, self.pool, self.tracer = wl, pool, tracer
        self.golden = goldens.get(wl.name, {}).get(str(seed), [])
        self.times, self.scaled, self.refs, self.traced = [], [], [], []
        self.passed = 0
        self.verified = {}
        self.layers, self.first_counts = [], None
        self.attempted = self.failed = 0

    def fail(self, j, problems):
        self.failed += 1
        for msg in problems[:5]:
            print(f"job {j}: {msg}", file=sys.stderr)

    def untraced_job(self, i: int) -> dict:
        before = reference_s()
        start = time.perf_counter()
        out = self.wl.job(self.pool[i])
        elapsed = time.perf_counter() - start
        ref = (before + reference_s()) / 2.0
        self.times.append(elapsed)
        self.refs.append(ref)
        self.scaled.append(elapsed * REF_S / ref)
        return out

    def traced_job(self, j: int, i: int) -> dict:
        self.tracer.job = j
        with self.tracer.span("bench.job"):
            start = time.perf_counter()
            full = self.wl.run(self.pool[i], self.tracer, keep=True)
            self.traced.append(time.perf_counter() - start)
        return full

    def problems(self, j: int, i: int, out: dict, full: dict) -> list[str]:
        """The first output of an instance is checked in full; each later
        output of it must equal that checked result."""
        import checks

        problems = []
        if full["result"] != out["result"]:
            problems.append("step-by-step result differs from the job's result")
        if i in self.verified:
            if out["result"] != self.verified[i]:
                problems.append("result differs from the checked result of this instance")
            return problems
        problems += self.wl.check(self.pool[i], full)
        if j < len(self.golden) and checks.digest(out["result"]) != self.golden[j]:
            problems.append("output digest differs from the golden for this seed")
        self.verified[i] = None if problems else out["result"]
        return problems

    def step(self, j: int) -> None:
        from workloads import probe, counts

        i = j % len(self.pool)
        self.attempted += 1
        try:
            if self.tracer is None:
                out = self.untraced_job(i)
                checked = i in self.verified or "barcodes" in out
                full = out if checked else self.wl.run(self.pool[i])
            else:
                # alternate which run of the instance comes first, so that
                # warm-up favours neither side of the trace overhead
                if j % 2:
                    full, out = self.traced_job(j, i), self.untraced_job(i)
                else:
                    out, full = self.untraced_job(i), self.traced_job(j, i)
                with self.tracer.span("bench.probe"):
                    sq_calls = probe(full, self.tracer, self.wl.uses_steenrod)
                self.layers.append(self.tracer.self_times(j))
                if self.first_counts is None:
                    self.first_counts = {**counts(full), "steenrod.sq_calls": sq_calls}
            problems = self.problems(j, i, out, full)
        except Exception:
            self.fail(j, traceback.format_exc().splitlines()[-3:])
            return
        if problems:
            self.fail(j, problems)
        else:
            self.passed += 1


def end_to_end(run: Run, setups: list[float]) -> dict:
    return {
        "setup_s": (statistics.median(setups), "s"),
        "job_s.p50": (statistics.median(run.scaled), "s"),
        "jobs_per_s": (run.passed / sum(run.scaled), "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def per_layer(run: Run) -> dict:
    m = {f"{name}_s": (statistics.median(lay.get(name, 0.0) for lay in run.layers), "s")
         for name in LAYER_TIMES}
    m["bench.trace_overhead"] = (statistics.median(run.traced) - statistics.median(run.times), "s")
    for name, value in run.first_counts.items():
        m[name] = (value, "count")
    return m


def main(argv=None) -> int:
    args = parse_args(argv)
    bench_setup.pin_threads()
    try:
        _, wl, pool = bench_setup.timed_setup(args.workload, args.seed)
    except (bench_setup.SetupError, ImportError) as exc:
        print(f"set-up failed: {exc}", file=sys.stderr)
        return 2

    from tracer import Tracer

    goldens = json.loads(GOLDENS.read_text()) if GOLDENS.is_file() else {}
    run = Run(wl, pool, args.seed, goldens, Tracer() if args.trace else None)
    setups = [] if args.trace else [child_setup(args.workload, args.seed)
                                    for _ in range(SETUP_REPEATS)]
    deadline = time.perf_counter() + args.seconds
    j = 0
    while j == 0 or time.perf_counter() < deadline:
        run.step(j)
        j += 1
    if not run.times or (args.trace and not run.layers):
        print("no job completed", file=sys.stderr)
        return 3

    metrics = per_layer(run) if args.trace else end_to_end(run, setups)
    if args.trace:
        TRACE_DIR.mkdir(exist_ok=True)
        run.tracer.write(TRACE_DIR / f"trace-{wl.name}-seed{args.seed}.json")
    print(f"# {wl.name} seed={args.seed} trace={args.trace}: {run.attempted} jobs on "
          f"{len(set(j % len(pool) for j in range(run.attempted)))} instances, {run.failed} failed, "
          f"fail_ratio={run.failed / run.attempted:.4f}; unscaled: median job "
          f"{statistics.median(run.times):.4g} s, {len(run.times) / sum(run.times):.4g} jobs/s, "
          f"median reference loop {statistics.median(run.refs):.4g} s")
    for name, (value, unit) in metrics.items():
        print(f"{name:28s} {value:>14.6g} {unit}")
    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
