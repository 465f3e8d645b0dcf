"""Config-driven entry point: solve / verify / ladder runs with reproducible
JSON + CSV reports.

One self-describing JSON config per run; the only flags are --config, --seed
(override) and --out (override). Reports are written as
{"header": {timestamp, tool, profile}, "body": {...}} with the body fully
determined by the config: regenerating from the embedded config is
byte-identical outside the header. The header's profile holds the wall time
of each phase of the run and its peak RSS. Exit codes: 0 success; 1
config/input error (also a driver that breaks its declared kappa or its
declared alpha growth bound, and a grid too coarse for the driver's
kappa); 2 a Picard run whose
solution the command reports did not converge, by the divergence rule or
at picard.max_iter: the solve, each interval of a subdivided solve,
verify's own solve (verify then skips the estimates) and its uniqueness
starts, and each ladder rung, but not the subdivision pilot, a calibration
run; else 3 a failed check; 4 solver failure (a rank-deficient regression,
a per-step fixed point that does not converge, or an iterate that
overflows). One rule, ``_exit_code``, gives 2, 3 and 0.
"""

import argparse
import csv
import datetime
import hashlib
import json
import os
import re
import sys
import time

try:
    import resource
except ImportError:             # no getrusage: the profile has no peak RSS
    resource = None

from . import __version__
from .errors import (ConditioningError, ConfigError, NumericError,
                     ResourceLimitError, StepSizeError)
from .estimates import (DEFAULT_CEILING, _estimates, ci_suite,
                        ci_suite_csv_rows, uniqueness_experiment)
from .generators import (CONFIG_SCHEMA_ID, DIM_D, DIM_M, GENERATOR_FORMS,
                         TERMINAL_FORMS, _is_real, _is_real_list,
                         _one_of, _read_schema, make_generator, make_problem,
                         make_terminal)
from .norms import norm_report
from .randomness import build_scenario_tree, make_mark_space, simulate_paths
from .solver import (_check_grid, chained_solve, picard_q, picard_solve,
                     solution_norms, subdivide_horizon, truncation_ladder_solve)

__all__ = ["main", "cmd_solve", "cmd_verify", "cmd_ladder", "load_config",
           "validate_config", "DEFAULT_CONFIG"]

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_DIVERGED = 2
EXIT_VERIFY_FAILED = 3
EXIT_SOLVER = 4


# ---------------------------------------------------------------------------
# config validation
# ---------------------------------------------------------------------------

# the run config's schema (read by generators._read_schema): each leaf is
# (kind, default); a required field's default, None, lies outside its domain.
# An integer's type is int: true and false are ints too, but not counts.
_POSITIVE_INT = (lambda x: type(x) is int and x >= 1, "a positive integer")
_INT_AT_LEAST_2 = (lambda x: type(x) is int and x >= 2, "an integer >= 2")
_POSITIVE_REAL = (lambda x: _is_real(x) and x > 0, "a positive real")
_NONNEG_REAL = (lambda x: _is_real(x) and x >= 0, "a non-negative real")
_NULL_OR_NONNEG_REAL = (lambda x: x is None or _NONNEG_REAL[0](x),
                        "null or a non-negative real")
_PICARD_Q = (lambda x: x is None or (_is_real(x) and 1 < x < 2),
             "null or a real in (1, 2)")
_MARKS = (lambda x: (isinstance(x, list) and len(x) >= 1
                     and all(_is_real_list(mark) and any(mark) for mark in x)
                     and len({len(mark) for mark in x}) == 1),
          "a non-empty list of non-zero marks, each a list of reals of one "
          "length")
_INTENSITIES = (lambda x: _is_real_list(x, lambda v: v > 0),
                "a list of one positive real per mark")
_OBJECT = (lambda x: isinstance(x, dict), "an object")

DEFAULT_CONFIG = {
    "schema": (_one_of([CONFIG_SCHEMA_ID], repr(CONFIG_SCHEMA_ID)), None),
    "problem": {
        "horizon": (_POSITIVE_REAL, None),
        "dim": (_POSITIVE_INT, 1),
        "marks": {"marks": (_MARKS, None), "intensities": (_INTENSITIES, None)},
        "generator": {
            "form": (_one_of(sorted(GENERATOR_FORMS)), None),
            "params": (_OBJECT, {}), "kappa": (_NULL_OR_NONNEG_REAL, None),
            "p": ((lambda x: _is_real(x) and x >= 1, "a real >= 1"), 2.0),
            "alpha": ((lambda x: x is None or (_is_real(x) and 0 < x < 1),
                       "null or a real in (0, 1)"), None),
            "gamma": (_NULL_OR_NONNEG_REAL, None), "g": (_NONNEG_REAL, 0.0)},
        "terminal": {"form": (_one_of(sorted(TERMINAL_FORMS)), None),
                     "params": (_OBJECT, {})},
    },
    "method": (_one_of(["tree", "mc"], "'tree' or 'mc'"), "tree"),
    "grid_steps": (_POSITIVE_INT, None),
    # JSON null disables the cap (lattice-only)
    "node_cap": ((lambda x: x is None or _POSITIVE_INT[0](x),
                  "a positive integer or null"), 10_000_000),
    # a batch's sample means carry a standard error
    "n_paths": (_INT_AT_LEAST_2, 10_000),
    "basis_degree": ((lambda x: type(x) is int and x >= 0,
                      "a non-negative integer"), 2),
    "seed": ((lambda x: type(x) is int, "an integer"), 0),
    "picard": {"tol": (_NONNEG_REAL, 1e-9), "max_iter": (_POSITIVE_INT, 25),
               "q": (_PICARD_Q, None)},
    "subdivide": {
        "enabled": (_one_of([False, True], "true or false"), False),
        "safety": ((lambda x: _is_real(x) and 0 < x < 1, "a real in (0, 1)"),
                   0.5),
        "c_emp": ((lambda x: x is None or _POSITIVE_REAL[0](x),
                   "null or a positive real"), None),
        # the pilot measures a contraction ratio from its second iteration
        "q": (_PICARD_Q, None), "pilot_max_iter": (_INT_AT_LEAST_2, 8)},
    "ladder": {
        "n_list": ((lambda x: x is None or (
            _is_real_list(x, lambda v: v > 0)
            and all(b > a for a, b in zip(x, x[1:]))),
            "an increasing list of positive reals"), None),
        "tol": (_NONNEG_REAL, 1e-3)},
    "verify": {"ceiling": (_POSITIVE_REAL, DEFAULT_CEILING),
               "suite": (_one_of([None, "ci12"], "null or 'ci12'"), None)},
    "out_dir": ((lambda x: x is None or isinstance(x, str),
                 "null or a string"), None),
}


def validate_config(raw):
    """``raw`` read against DEFAULT_CONFIG, then the checks that span
    fields: one intensity per mark, and each form's params read against
    that form's schema."""
    cfg = _read_schema(DEFAULT_CONFIG, raw, "")
    prob = cfg["problem"]
    marks, intensities = prob["marks"]["marks"], prob["marks"]["intensities"]
    if len(intensities) != len(marks):
        raise ConfigError("problem.marks.intensities",
                          f"must be {_INTENSITIES[1]}, got {intensities!r}")
    dims = {DIM_D: prob["dim"], DIM_M: len(marks)}
    for section, forms in (("generator", GENERATOR_FORMS),
                           ("terminal", TERMINAL_FORMS)):
        spec = prob[section]
        _read_schema(forms[spec["form"]][1], spec["params"],
                     f"problem.{section}.params", dims)
    return cfg


def load_config(path):
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as e:
        raise ConfigError(f"{path}:{e.lineno}", f"invalid JSON: {e.msg}") from e
    try:
        return validate_config(raw)
    except ConfigError as e:
        raise _at_line(path, e, text) from e


def _at_line(path, error, text=None):
    """``error`` with its dotted config path prefixed by the config file:
    by ``path:line`` when the config text (read from ``path`` unless given)
    has that key, else by ``path`` alone, and the setting, which then holds
    its default value, is marked ``(default)``."""
    if text is None:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    line = _locate_key(text, error.path)
    if line is not None:
        return ConfigError(f"{path}:{line}: {error.path}", error.message)
    if error.path == "<root>":          # the config itself is not an object
        return ConfigError(f"{path}: {error.path}", error.message)
    return ConfigError(f"{path}: {error.path} (default)", error.message)


# an object key, a string value, or a bracket
_JSON_TOKEN = re.compile(r'("(?:[^"\\]|\\.)*")\s*:|"(?:[^"\\]|\\.)*"|[{}\[\]]')


def _locate_key(text, dotted_path):
    """Line number of the key at a dotted config path, following the path
    through the nesting of objects; None if the text has no such key."""
    want = dotted_path.split(".")
    parents, key = [], None
    for match in _JSON_TOKEN.finditer(text):
        token = match.group()
        if token in ("{", "["):
            parents.append(key if token == "{" else None)
            key = None
        elif token in ("}", "]"):
            parents.pop()
            key = None
        elif match.group(1):
            key = json.loads(match.group(1))
            if parents[1:] + [key] == want:
                return text.count("\n", 0, match.start()) + 1
    return None


# ---------------------------------------------------------------------------
# run assembly
# ---------------------------------------------------------------------------

def _build_problem(cfg):
    prob = cfg["problem"]
    marks = make_mark_space(prob["marks"]["marks"],
                            prob["marks"]["intensities"])
    gen_cfg = prob["generator"]
    gen = make_generator(gen_cfg["form"], gen_cfg["params"], marks=marks,
                         d=prob["dim"], p=gen_cfg["p"], kappa=gen_cfg["kappa"],
                         alpha=gen_cfg["alpha"], gamma=gen_cfg["gamma"],
                         g=gen_cfg["g"])
    term = make_terminal(prob["terminal"]["form"], prob["terminal"]["params"],
                         marks=marks, d=prob["dim"], p=gen_cfg["p"])
    return make_problem(prob["horizon"], cfg["grid_steps"], prob["dim"],
                        marks, gen, term)


def _context_for(cfg, problem):
    _check_grid(problem, cfg["method"] == "mc")      # before tree or batch
    if cfg["method"] == "tree":
        tree = build_scenario_tree(problem.grid, problem.marks, problem.d,
                                   node_cap=cfg["node_cap"])
        return {"tree": tree}
    batch = simulate_paths(problem.grid, problem.marks, problem.d,
                           cfg["n_paths"], cfg["seed"])
    return {"batch": batch, "basis_degree": cfg["basis_degree"]}


def _out_dir(cfg):
    return (cfg["out_dir"] or os.environ.get("JUMPBSDE_OUT") or "runs")


def _embeddable(cfg):
    """Config as embedded in report bodies: the output directory is delivery
    location, not experiment provenance, and stays out of the byte-stable
    payload."""
    return {**cfg, "out_dir": None}


class _Profile:
    """The wall time of a run's phases -- set-up (config, problem, tree or
    batch), solve, norms (a solve's norms, verify's estimates) and report
    (the body and its CSV tables, up to the JSON report's own write) --
    and the process's peak RSS, for the report header."""

    PHASES = ("setup", "solve", "norms", "report")

    def __init__(self):
        self.seconds = dict.fromkeys(self.PHASES, 0.0)
        self.phase, self.since = "setup", time.perf_counter()

    def enter(self, phase):
        """End the current phase and start ``phase`` (phases may recur)."""
        now = time.perf_counter()
        self.seconds[self.phase] += now - self.since
        self.phase, self.since = phase, now

    def header(self):
        self.enter(self.phase)
        # ru_maxrss counts KiB on Linux
        rss = (None if resource is None else
               resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
        return {"phases_s": dict(self.seconds), "ru_maxrss_mb": rss}


def write_report(out_dir, name, body, profile=None):
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, name)
    header = {
        "timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        "tool": f"jumpbsde {__version__}",
    }
    if profile is not None:
        header["profile"] = profile
    doc = {"header": header, "body": body}
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, sort_keys=True, indent=1)
        fh.write("\n")
    return path


def write_csv(out_dir, name, rows):
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, name)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerows(rows)
    return path


def append_estimate_log(out_dir, reports):
    """Append estimate reports to the run log (one JSON document per line)."""
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, "estimates.jsonl")
    with open(path, "a", encoding="utf-8") as fh:
        for rep in reports:
            fh.write(json.dumps(rep.to_json_dict(), sort_keys=True) + "\n")
    return path


def _norm_records(solution, problem, seed):
    norms = solution_norms(solution, problem)
    return [norm_report(name, norms["p"], norms[name], norms["estimator"],
                        norms["n_paths"], seed) for name in ("sp", "mp", "lp")]


def _table(columns, records):
    """CSV rows: the header ``columns``, then each record's values under
    them (``csv`` writes a float as its repr and None as an empty cell)."""
    return [list(columns)] + [[rec[c] for c in columns] for rec in records]


def _report(cfg, command, body, profile, tables=()):
    """Write a command's report: ``body`` with the schema, the command and
    the embedded config, as ``<command>_<fp>.json``, and each (suffix,
    rows) table as ``<command>_<fp><suffix>.csv``, the tables first, so
    that the header's profile counts them; returns (body, files), the JSON
    report first."""
    profile.enter("report")
    config = _embeddable(cfg)
    blob = json.dumps(config, sort_keys=True)
    out, fp = _out_dir(cfg), hashlib.sha256(blob.encode()).hexdigest()[:12]
    body = {"schema": "jumpbsde/report/v1", "command": command,
            "config": config, **body}
    tables = [write_csv(out, f"{command}_{fp}{suffix}.csv", rows)
              for suffix, rows in tables]
    return body, [write_report(out, f"{command}_{fp}.json", body,
                               profile.header())] + tables


def _exit_code(converged, passed=True):
    """The one exit rule: EXIT_DIVERGED when a Picard run whose solution
    the command reports did not converge (``converged``: one flag per run),
    else EXIT_VERIFY_FAILED when a check failed, else EXIT_OK."""
    if not all(converged):
        return EXIT_DIVERGED
    return EXIT_OK if passed else EXIT_VERIFY_FAILED


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def cmd_solve(cfg, profile=None):
    """Run the configured solve; returns (exit_code, body, files)."""
    profile = profile or _Profile()
    problem = _build_problem(cfg)
    ctx = _context_for(cfg, problem)
    profile.enter("solve")
    pic = cfg["picard"]

    sub = cfg["subdivide"]
    if sub["enabled"]:
        q = sub["q"] or picard_q(problem.generator.growth_alpha)
        kappa, T, N = (problem.generator.lipschitz_kappa,
                       problem.grid.horizon, problem.grid.steps)
        c_emp = sub["c_emp"]
        pilot_trace = None
        if c_emp is None:
            # a calibration run: its solution is not reported
            _, pilot_trace = picard_solve(
                problem, cfg["method"], tol=pic["tol"],
                max_iter=sub["pilot_max_iter"], q=q, **ctx)
            # with tol >= 0 and at least two iterations, a pilot measures
            # no ratio only when it converged at its first: nothing to plan
            r_hat = max(pilot_trace.ratios, default=0.0)
            scale = kappa * T ** (1 - q / 2)
            # kappa = 0: the driver ignores (y, z, v), one interval will do
            c_emp = r_hat / scale if scale > 0 else 0.0
        # more intervals than steps divide no grid, and the plan needs more
        # exactly when N intervals miss the bound: checked before anything
        # of the plan's size is built, by a product that is inf at worst
        at_n = kappa * c_emp * (T / N) ** (1 - q / 2)
        if at_n > sub["safety"]:
            raise ConfigError("grid_steps", f"the plan needs more than {N} "
                              f"intervals: kappa*c_emp*(T/N)^(1-q/2) = "
                              f"{at_n:g} > safety; use more steps")
        plan = subdivide_horizon(T, kappa, q, c_emp, sub["safety"])
        if N % plan.k_intervals:
            raise ConfigError("grid_steps", f"{N} steps not divisible by the "
                              f"{plan.k_intervals}-interval plan; use a "
                              "multiple")
        # the pilot solve, when it ran, checked the declared kappa
        solution, traces = chained_solve(problem, plan, cfg["method"],
                                         tol=pic["tol"],
                                         max_iter=pic["max_iter"], q=q,
                                         check_assumptions=pilot_trace is None,
                                         **ctx)
        trace_dict = {"intervals": [t.to_json_dict() for t in traces]}
        plan_dict = plan.to_json_dict()
        csv_rows = _table(("interval", "iteration", "dist", "ratio"),
                          [{"interval": i, **r} for i, t in enumerate(traces)
                           for r in t.rows()])
    else:
        solution, trace = picard_solve(problem, cfg["method"], tol=pic["tol"],
                                       max_iter=pic["max_iter"], q=pic["q"],
                                       **ctx)
        traces = [trace]
        trace_dict = trace.to_json_dict()
        plan_dict = None
        csv_rows = _table(("iteration", "dy", "dz", "dv", "dist", "ratio"),
                          trace.rows())

    profile.enter("norms")
    norms = _norm_records(solution, problem, cfg["seed"])
    body, files = _report(cfg, "solve", {
        "problem_fingerprint": problem.fingerprint(),
        "method": cfg["method"],
        "grid": problem.grid.to_json_dict(),
        "seed": cfg["seed"],
        "y0": solution.y0,
        "norms": norms,
        "picard_trace": trace_dict,
        "subdivision_plan": plan_dict,
        "converged": all(t.converged for t in traces),
        "diverged": any(t.diverged for t in traces),
    }, profile, [("_trace", csv_rows)])
    return _exit_code([t.converged for t in traces]), body, files


def cmd_verify(cfg, profile=None):
    """Solve, then verify the a priori estimates and uniqueness."""
    profile = profile or _Profile()
    ceiling = cfg["verify"]["ceiling"]
    if cfg["verify"]["suite"] == "ci12":
        profile.enter("solve")
        records = ci_suite(ceiling=ceiling)
        body, files = _report(cfg, "verify", {
            "suite": "ci12",
            "records": [{"driver": r["driver"], "p": r["p"],
                         "horizon": r["horizon"],
                         "zv": r["zv"].to_json_dict(),
                         "full": r["full"].to_json_dict()} for r in records],
            "max_implied_constant": max(
                max(r["zv"].implied_constant, r["full"].implied_constant)
                for r in records),
            "all_passed": all(r["zv"].passed and r["full"].passed
                              for r in records),
        }, profile, [("_suite", ci_suite_csv_rows(records))])
        return _exit_code([], body["all_passed"]), body, files

    problem = _build_problem(cfg)
    ctx = _context_for(cfg, problem)
    profile.enter("solve")
    pic = cfg["picard"]
    solution, trace = picard_solve(problem, cfg["method"], tol=pic["tol"],
                                   max_iter=pic["max_iter"], q=pic["q"], **ctx)
    if not trace.converged:
        # the estimates of an unconverged iterate verify nothing
        body, files = _report(cfg, "verify", {
            "converged": False, "diverged": trace.diverged,
            "picard_trace": trace.to_json_dict()}, profile)
        return _exit_code([trace.converged]), body, files

    profile.enter("norms")
    zv, full = _estimates(solution, problem, None, ceiling, full=problem.p > 1)
    # the verify solve is the uniqueness experiment's (0, 0, 0) start
    profile.enter("solve")
    uniq = uniqueness_experiment(problem, cfg["method"], tol=pic["tol"],
                                 q=pic["q"], max_iter=pic["max_iter"],
                                 _first_run=(solution, trace), **ctx)
    estimates = [zv] + ([full] if full else [])
    rows = _table(("name", "lhs", "rhs_core", "implied_constant", "passed"),
                  [est.to_json_dict() for est in estimates])
    body, files = _report(cfg, "verify", {
        "problem_fingerprint": problem.fingerprint(),
        "y0": solution.y0,
        "zv_estimate": zv.to_json_dict(),
        "full_estimate": full.to_json_dict() if full else None,
        "uniqueness": {k: v for k, v in uniq.items() if k != "traces"},
        "all_passed": (all(est.passed for est in estimates)
                       and uniq["passed"] is True),
    }, profile, [("_estimates", rows)])
    files.append(append_estimate_log(_out_dir(cfg), estimates))
    return (_exit_code([t["converged"] for t in uniq["traces"]],
                       body["all_passed"]), body, files)


def cmd_ladder(cfg, profile=None):
    """Run the truncation ladder end to end."""
    profile = profile or _Profile()
    if cfg["ladder"]["n_list"] is None:
        raise ConfigError("ladder.n_list", "required for the ladder command")
    problem = _build_problem(cfg)
    ctx = _context_for(cfg, problem)
    profile.enter("solve")
    report = truncation_ladder_solve(problem, cfg["ladder"]["n_list"],
                                     cfg["method"],
                                     tol=cfg["ladder"]["tol"],
                                     picard_tol=cfg["picard"]["tol"],
                                     max_iter=cfg["picard"]["max_iter"],
                                     q=cfg["picard"]["q"], **ctx)
    rows = (_table(("n", "y0", "converged"), report.levels) + [[]]
            + _table(("n_lo", "n_hi", "measured_d_norm", "bound", "bound_se",
                      "within_bound"), report.pairs))
    body, files = _report(cfg, "ladder", {
        "problem_fingerprint": problem.fingerprint(),
        "ladder": report.to_json_dict(),
    }, profile, [("", rows)])
    return _exit_code([lev["converged"] for lev in report.levels]), body, files


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

COMMANDS = {"solve": cmd_solve, "verify": cmd_verify, "ladder": cmd_ladder}


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="jumpbsde",
        description="BSDE-with-jumps solves, verifications and ladders "
                    "driven by a single JSON config per run.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="JSON run config")
        p.add_argument("--seed", type=int, default=None,
                       help="override the config seed")
        p.add_argument("--out", default=None,
                       help="override the output directory")
    args = parser.parse_args(argv)

    profile = _Profile()
    try:
        cfg = load_config(args.config)
        if args.seed is not None:
            cfg["seed"] = args.seed
        if args.out is not None:
            cfg["out_dir"] = args.out
        try:
            code, body, files = COMMANDS[args.command](cfg, profile)
        except ResourceLimitError as e:
            raise _at_line(args.config, ConfigError(e.setting, str(e))) from e
        except StepSizeError as e:
            raise _at_line(args.config, ConfigError("grid_steps", str(e))) from e
        except ConfigError as e:
            raise _at_line(args.config, e) from e
    except (ConfigError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    except (ConditioningError, NumericError) as e:
        print(f"error: solver failure: {e}", file=sys.stderr)
        return EXIT_SOLVER
    for f in files:
        print(f)
    if code == EXIT_DIVERGED:
        # only solve reads the subdivide section
        settings = ("picard.max_iter or subdivide.enabled"
                    if args.command == "solve" else "picard.max_iter")
        n = cfg["grid_steps"]
        print("a reported Picard iteration did not converge; see the report "
              f"(consider {settings}); on a grid of {n} steps, picard.max_iter"
              f" {n + 2} reaches the direct backward solve unless the "
              "divergence rule stops the run first or the iterate overflows "
              "(exit 4)", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
