"""One jumpbsde run in a fresh process, timed from outside the program.

Usage: child.py MODE SRC COMMAND CONFIG OUT_DIR RESULT [--spans PATH]

MODE ``full`` is an untraced end-to-end run. Once it is timed and its peak
RSS read, the process repeats the set-up phase (``cli.main`` up to the return
of the noise constructor) for about ``SETUP_BUDGET_S`` more, so set-up time
is sampled many times and across the whole benchmark run. MODE ``traced``
wraps every layer first (``layers.instrument``) and writes the spans to
``--spans``. The result is written to RESULT as JSON. Peak RSS is this
process's high-water mark, which is why every timed run has a process of its
own.
"""

import argparse
import contextlib
import io
import json
import os
import resource
import sys
import time

# cli.py imports these names; the first call of either ends set-up
CONSTRUCTORS = ("build_scenario_tree", "simulate_paths")
SETUP_BUDGET_S = 0.5
SETUP_REPEATS = (2, 10)   # fewest and most repeats after the full run


class SetupDone(BaseException):
    """Unwinds cli.main once set-up is timed (not an error the CLI handles)."""


def _mark_setup(cli, marks):
    """Wrap cli's constructors: record when the first one returns, and end
    the run there once ``marks["stop"]`` is set."""
    for name in CONSTRUCTORS:
        fn = getattr(cli, name)

        def timed(*args, _fn=fn, **kwargs):
            result = _fn(*args, **kwargs)
            if "setup_end" not in marks:
                marks["setup_end"] = time.perf_counter()
                if marks.get("stop"):
                    raise SetupDone
            return result

        setattr(cli, name, timed)


def _setup_samples(cli, args, marks):
    """Set-up times of repeated runs cut short at the constructor."""
    samples, spent = [], 0.0
    lo, hi = SETUP_REPEATS
    marks["stop"] = True
    while len(samples) < hi and (len(samples) < lo or spent < SETUP_BUDGET_S):
        marks.pop("setup_end", None)
        t_enter = time.perf_counter()
        try:
            cli.main(args)
        except SetupDone:
            pass
        else:
            raise RuntimeError("the run built no scenario tree or path batch")
        samples.append(marks["setup_end"] - t_enter)
        spent += time.perf_counter() - t_enter
    return samples


def _report_body(printed):
    for line in printed.splitlines():
        if line.endswith(".json"):
            with open(line, "r", encoding="utf-8") as fh:
                return json.load(fh)["body"]
    raise RuntimeError("the run printed no JSON report path")


def main(argv):
    ap = argparse.ArgumentParser()
    for name in ("mode", "src", "command", "config", "out_dir", "result"):
        ap.add_argument(name)
    ap.add_argument("--spans")
    opts = ap.parse_args(argv)
    mode, src = opts.mode, opts.src
    sys.path.insert(0, src)
    t_import = time.perf_counter()
    import jumpbsde.cli as cli
    import_s = time.perf_counter() - t_import
    pkg_dir = os.path.dirname(os.path.abspath(cli.__file__))
    if os.path.dirname(pkg_dir) != os.path.abspath(src):
        raise RuntimeError(f"imported jumpbsde from {pkg_dir}, not from {src}")

    # the benchmark modules sit beside this file
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    import gate

    marks, tracer, counters = {}, None, None
    if mode == "traced":
        import layers
        from tracer import Tracer
        tracer = Tracer()
        counters = layers.instrument(tracer)
    else:
        _mark_setup(cli, marks)

    args = [opts.command, "--config", opts.config, "--out", opts.out_dir]
    printed = io.StringIO()
    with contextlib.redirect_stdout(printed):
        t_enter = time.perf_counter()
        code = cli.main(args)
        t_exit = time.perf_counter()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    result = {"mode": mode, "import_s": import_s, "exit_code": code,
              "wall_s": t_exit - t_enter, "peak_rss_mb": peak_rss_mb,
              "observed": gate.observe(code, _report_body(printed.getvalue()))}
    if tracer is None:
        result["setup_samples"] = ([marks["setup_end"] - t_enter]
                                   + _setup_samples(cli, args, marks))
    else:
        import layers
        result["layers"] = {k: list(v) for k, v in
                            layers.metrics(tracer, counters).items()}
        if opts.spans:
            tracer.dump(opts.spans, counters=counters,
                        metrics=result["layers"])
    import numpy
    import scipy
    result["versions"] = {"python": sys.version.split()[0],
                          "numpy": numpy.__version__,
                          "scipy": scipy.__version__}
    with open(opts.result, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
