"""Benchmark of jumpbsde's four solve paths, driven through ``cli.main``.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --all [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a source checkout: the program is imported from its
``src/``. Each timed run is a fresh child process (``child.py``), one at a
time, with BLAS/OpenMP pinned to one thread; reports go to a scratch
directory under ``.perfbench/`` that is removed afterwards.

``--trace 0`` measures the end-to-end metrics: full runs repeat while one
more would end mostly within ``--seconds`` (at least ``MIN_ROUNDS[0]``);
each metric is the median over the runs, and ``setup_s`` the median over
every set-up sample the runs took. ``--trace 1`` alternates an untraced and
a traced run of the same config (at least ``MIN_ROUNDS[1]`` pairs) and
reports the per-layer metrics (medians over the traced runs); the spans of
each traced run are written to ``.perfbench/traces/``.

Every full run passes the correctness gate (``gate.py``) against
``references.json`` or counts as failed. The last line of standard output is
one JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench")
sys.path.insert(0, HERE)

import gate  # noqa: E402
import layers  # noqa: E402
import workloads  # noqa: E402

MIN_ROUNDS = {0: 2, 1: 2}   # by --trace
BUDGET_S = 150.0          # stop starting children after this much time
CHILD_TIMEOUT_S = 170.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


class BenchError(RuntimeError):
    pass


def environment():
    """Machine facts recorded beside every result."""
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", "r", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"nproc": len(os.sched_getaffinity(0)), "cpu_model": cpu,
            **{var: "1" for var in THREAD_VARS}}


def child_env():
    env = dict(os.environ)
    env.update({var: "1" for var in THREAD_VARS})
    env["PYTHONPATH"] = os.pathsep.join(
        [SRC] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


class Session:
    """Scratch directory and child launcher for one benchmark invocation."""

    def __init__(self, name, seed, held_out):
        self.name = name
        self.label = f"{name}-{'held-out' if held_out else f'seed{seed}'}"
        self.command, cfg = workloads.make_run(name, seed, held_out)
        os.makedirs(WORK, exist_ok=True)
        self.tmp = tempfile.mkdtemp(prefix="run-", dir=WORK)
        self.config = os.path.join(self.tmp, "config.json")
        with open(self.config, "w", encoding="utf-8") as fh:
            json.dump(cfg, fh, indent=1)
        self.env = child_env()
        self.t0 = time.perf_counter()
        self.count = 0
        self.versions = None

    def elapsed(self):
        return time.perf_counter() - self.t0

    def close(self):
        shutil.rmtree(self.tmp, ignore_errors=True)

    def child(self, mode, spans=None):
        """Run one child; returns its result dict, or None if it failed."""
        self.count += 1
        run_dir = os.path.join(self.tmp, f"{mode}-{self.count}")
        os.makedirs(run_dir)
        result_path = os.path.join(run_dir, "result.json")
        cmd = [sys.executable, os.path.join(HERE, "child.py"), mode, SRC,
               self.command, self.config, os.path.join(run_dir, "out"),
               result_path] + (["--spans", spans] if spans else [])
        timeout = max(1.0, CHILD_TIMEOUT_S - self.elapsed())
        try:
            proc = subprocess.run(cmd, env=self.env, cwd=ROOT,
                                  capture_output=True, text=True,
                                  timeout=timeout)
        except subprocess.TimeoutExpired:
            print(f"{mode} run timed out after {timeout:.0f} s", file=sys.stderr)
            return None
        if proc.returncode != 0 or not os.path.exists(result_path):
            print(f"{mode} run failed (exit {proc.returncode}):\n"
                  f"{proc.stderr[-2000:]}", file=sys.stderr)
            return None
        with open(result_path, "r", encoding="utf-8") as fh:
            result = json.load(fh)
        self.versions = result.get("versions", self.versions)
        return result


def _verdict(result, reference):
    """Gate verdict for a run: list of problems, empty if correct."""
    if result is None:
        return ["the run did not complete"]
    return gate.check(result["observed"], reference)


def _more(session, rounds, seconds, last, least):
    """Start another round? Rounds repeat while one more would end mostly
    within ``seconds``, at least ``least`` times, never past BUDGET_S."""
    now = session.elapsed()
    if rounds == 0:
        return True
    if now + last >= BUDGET_S:
        return False
    return rounds < least or now + 0.5 * last < seconds


def _median(values):
    if not values:
        raise BenchError("no run produced this measurement")
    return statistics.median(values)


def measure(session, seconds, trace, reference):
    """Run children for ``seconds``; returns (runs, verdicts, setups, traced)."""
    runs, verdicts, setups, traced = [], [], [], []
    rounds, last = 0, 0.0
    while _more(session, rounds, seconds, last, MIN_ROUNDS[trace]):
        rounds += 1
        start = session.elapsed()
        res = session.child("full")
        runs.append(res)
        verdicts.append(_verdict(res, reference))
        if res is not None:
            setups.extend(res["setup_samples"])
        if trace:
            os.makedirs(os.path.join(WORK, "traces"), exist_ok=True)
            spans = os.path.join(WORK, "traces",
                                 f"{session.label}-{rounds}.json")
            tres = session.child("traced", spans)
            runs.append(tres)
            verdicts.append(_verdict(tres, reference))
            if tres is not None:
                traced.append(tres)
        last = session.elapsed() - start
    return runs, verdicts, setups, traced


def end_to_end(runs, setups):
    ok = [r for r in runs if r is not None]
    return {
        "wall_s": (_median([r["wall_s"] for r in ok]), "s"),
        "setup_s": (_median(setups), "s"),
        "peak_rss_mb": (_median([r["peak_rss_mb"] for r in ok]), "MB"),
    }


def per_layer(runs, traced):
    table = {}
    for res in traced:
        for name, (value, unit) in res["layers"].items():
            table.setdefault(name, (unit, []))[1].append(value)
    # counts repeat exactly; median_low keeps them whole numbers
    out = {name: (_median(vals) if unit == "s" else statistics.median_low(vals),
                  unit) for name, (unit, vals) in table.items()}
    untraced = [r for r in runs if r is not None and r["mode"] == "full"]
    out["cli.import_s"] = (_median([r["import_s"] for r in untraced]), "s")
    out["trace.overhead_s"] = (
        out["trace.wall_s"][0] - _median([r["wall_s"] for r in untraced]), "s")
    return out


def declared_metrics(key):
    with open(os.path.join(ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as fh:
        return [m["name"] for m in json.load(fh)[key]]


def run_workload(name, seed, seconds, trace, held_out=False):
    """Measure one workload; returns (summary, metrics)."""
    refs = gate.load_references(os.path.join(HERE, "references.json"))
    reference = refs.get(name, {}).get(
        workloads.reference_key(name, seed, held_out))
    session = Session(name, seed, held_out)
    try:
        runs, verdicts, setups, traced = measure(session, seconds, trace,
                                                 reference)
    finally:
        session.close()
    for i, (res, problems) in enumerate(zip(runs, verdicts), start=1):
        if res is None:
            print(f"{name} run {i}: did not complete")
            continue
        line = (f"{name} run {i} [{res['mode']}]: wall_s={res['wall_s']!r} s "
                f"peak_rss_mb={res['peak_rss_mb']!r} MB ")
        if "setup_samples" in res:
            line += (f"setup_s={statistics.median(res['setup_samples'])!r} s "
                     f"(median of {len(res['setup_samples'])}) ")
        line += (f"y0={res['observed']['y0']!r} "
                 f"body_sha256={res['observed']['body_sha256']}")
        print(line + (" gate=ok" if not problems
                      else " gate=FAILED: " + "; ".join(problems)))
    hashes = {r["observed"]["body_sha256"] for r in runs if r is not None}
    failed = sum(1 for problems in verdicts if problems)
    if len(hashes) > 1:
        print(f"{name}: body hash differs between runs: {sorted(hashes)}")
        failed = len(runs)
    summary = {"workload": name, "attempted": len(runs), "failed": failed,
               "failed_frac": failed / len(runs),
               "config_seed": workloads.config_seed(name, seed, held_out),
               "body_sha256": sorted(hashes),
               "env": {**environment(), **(session.versions or {})}}
    if trace:
        metrics = per_layer(runs, traced)
    else:
        metrics = end_to_end(runs, setups)
    return summary, metrics


def print_layers(name, metrics):
    print(f"{name}: per-layer metrics (median over traced runs)")
    for key in sorted(metrics):
        value, unit = metrics[key]
        print(f"  {key:36s} {value!r} {unit}")
    for layer in layers.UNREACHED_LAYERS:
        print(f"  {layer}: unmeasured (no workload reaches it)")
    self_sum = sum(metrics[f"{layer}.self_s"][0] for layer in layers.LAYERS)
    wall, overhead = metrics["trace.wall_s"][0], metrics["trace.overhead_s"][0]
    verdict = "ok" if abs(self_sum - wall) <= abs(overhead) else "MISMATCH"
    print(f"  layer self times sum to {self_sum!r} s against traced wall "
          f"{wall!r} s (overhead {overhead!r} s): {verdict}")


def result_line(summary, metrics, names):
    missing = [n for n in names if n not in metrics]
    if missing:
        raise BenchError(f"metrics not measured: {missing}")
    return {"correct": summary["failed"] == 0,
            "attempted": summary["attempted"], "failed": summary["failed"],
            "metrics": {n: {"value": metrics[n][0], "unit": metrics[n][1]}
                        for n in names}}


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    which = ap.add_mutually_exclusive_group(required=True)
    which.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    which.add_argument("--all", action="store_true",
                       help="run every workload and print a summary table")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--held-out", action="store_true",
                    help="use the held-out config seed of the Monte Carlo "
                         "workloads")
    return ap.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "jumpbsde", "cli.py")):
        print(f"error: no jumpbsde sources under {SRC}; run from the root of "
              "a source checkout", file=sys.stderr)
        return 2
    key = "per_layer" if args.trace else "end_to_end"
    try:
        names = declared_metrics(key)
        if args.workload:
            summary, metrics = run_workload(args.workload, args.seed,
                                            args.seconds, args.trace,
                                            args.held_out)
            if args.trace:
                print_layers(args.workload, metrics)
            print("env: " + json.dumps(summary["env"], sort_keys=True))
            print(f"{args.workload}: failed_frac={summary['failed_frac']!r} "
                  f"({summary['failed']} of {summary['attempted']})")
            print(json.dumps(result_line(summary, metrics, names)))
            return 0
        rows = []
        for name in workloads.WORKLOADS:
            summary, metrics = run_workload(name, args.seed, args.seconds,
                                            args.trace, args.held_out)
            if args.trace:
                print_layers(name, metrics)
            rows.append((summary, metrics))
        print("env: " + json.dumps(rows[0][0]["env"], sort_keys=True))
        for summary, metrics in rows:
            cells = [f"{n}={metrics[n][0]:.6g} {metrics[n][1]}" for n in names
                     if n in metrics and not args.trace]
            print(f"{summary['workload']:14s} " + "  ".join(cells)
                  + f"  failed_frac={summary['failed_frac']:.3g}"
                  f" ({summary['failed']}/{summary['attempted']})"
                  f"  body_sha256={','.join(h[:16] for h in summary['body_sha256'])}")
        print(json.dumps({s["workload"]: result_line(s, m, names)
                          for s, m in rows}))
        return 0
    except (BenchError, OSError, KeyError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
