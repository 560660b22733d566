"""Run every workload untraced and traced and print all metrics with units.

    python3 benchmarks/report.py --seed 1 --seconds 35

Each run is a separate ``run.py`` process, as in a benchmark sweep.
Exits 1 if any run fails or reports an incorrect output.
"""

import argparse
import json
import subprocess
import sys

import bench_setup


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=35.0)
    args = p.parse_args()
    bench_setup.import_library()
    from workloads import WORKLOADS

    ok = True
    for workload in WORKLOADS:
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, str(bench_setup.HERE / "run.py"), "--workload", workload,
                 "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(trace)],
                capture_output=True, text=True, cwd=bench_setup.ROOT,
            )
            lines = proc.stdout.strip().splitlines()
            print("\n".join(lines[:-1]))
            sys.stderr.write(proc.stderr)
            ok = ok and proc.returncode == 0 and bool(lines) and json.loads(lines[-1])["correct"]
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
