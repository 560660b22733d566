"""Record output digests of the first instances of each workload's default
seeds into goldens.json; run.py compares every job on those seeds to them.

    python3 benchmarks/record_goldens.py

Re-record only when a change is meant to alter outputs, and say so.
"""

import json

import bench_setup

SEEDS = (1, 2, 3)
INSTANCES = 3


def main() -> None:
    bench_setup.pin_threads()
    bench_setup.import_library()
    import checks
    from workloads import WORKLOADS

    goldens = {}
    for name, wl in WORKLOADS.items():
        goldens[name] = {
            str(seed): [checks.digest(wl.job(inst)["result"])
                        for inst in wl.make_inputs(seed)[:INSTANCES]]
            for seed in SEEDS
        }
    with open(bench_setup.HERE / "goldens.json", "w") as fh:
        json.dump(goldens, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()
