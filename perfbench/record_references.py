"""Record the correctness gate's reference outputs into references.json.

    python3 perfbench/record_references.py [WORKLOAD ...]

Runs each named workload (all by default) once per config seed it can map to
-- every ``BENCH_SEEDS`` entry and ``HELD_OUT_SEED`` for the Monte Carlo
workloads, one config for the seed-invariant tree workloads -- and stores the
gate's observables. Record only from a commit whose report bodies are known
good: every later run is compared with these values exactly.
"""

import json
import os
import sys

import gate
import run
import workloads


def record(name):
    seeded = workloads.WORKLOADS[name][2]
    seeds = list(workloads.BENCH_SEEDS) if seeded else [0]
    jobs = [(s, False) for s in seeds] + ([(0, True)] if seeded else [])
    entries = {}
    for seed, held_out in jobs:
        session = run.Session(name, seed, held_out)
        try:
            result = session.child("full")
        finally:
            session.close()
        if result is None:
            raise SystemExit(f"{name} seed {seed}: the run failed")
        obs = result["observed"]
        if obs["exit_code"] != 0:
            raise SystemExit(f"{name} seed {seed}: exit code "
                             f"{obs['exit_code']}")
        key = workloads.reference_key(name, seed, held_out)
        entries[key] = obs
        print(f"{name} [{key}]: y0={obs['y0']!r} wall_s={result['wall_s']:.2f}",
              flush=True)
    return entries


def main(names):
    path = os.path.join(run.HERE, "references.json")
    refs = gate.load_references(path) if os.path.exists(path) else {}
    for name in names or list(workloads.WORKLOADS):
        refs[name] = record(name)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(refs, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main(sys.argv[1:])
