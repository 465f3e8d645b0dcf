"""Config-driven entry point: solve / verify / ladder runs with reproducible
JSON + CSV reports.

One self-describing JSON config per run; the only flags are --config, --seed
(override) and --out (override). Reports are written as
{"header": {timestamp, tool}, "body": {...}} with the body fully determined
by the config: regenerating from the embedded config is byte-identical
outside the header. Exit codes: 0 success, 1 config/input error (also a
driver that breaks its declared kappa), 2 divergence report,
3 verification failure, 4 solver failure (a rank-deficient regression, a
per-step fixed point that does not converge, or an iterate that
overflows).
"""

import argparse
import csv
import datetime
import hashlib
import json
import os
import re
import sys

from . import __version__
from .errors import (ConditioningError, ConfigError, NumericError,
                     ResourceLimitError)
from .estimates import (DEFAULT_CEILING, ci_suite, ci_suite_csv_rows,
                        uniqueness_experiment, verify_full_estimate,
                        verify_zv_estimate)
from .generators import (CONFIG_SCHEMA_ID, GENERATOR_FORMS, TERMINAL_FORMS,
                         _is_real, _read_params, make_generator, make_problem,
                         make_terminal)
from .norms import norm_report
from .randomness import build_scenario_tree, make_mark_space, simulate_paths
from .solver import (chained_solve, picard_q, picard_solve, solution_norms,
                     subdivide_horizon, truncation_ladder_solve)

__all__ = ["main", "cmd_solve", "cmd_verify", "cmd_ladder", "load_config",
           "validate_config", "DEFAULT_CONFIG"]

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_DIVERGED = 2
EXIT_VERIFY_FAILED = 3
EXIT_SOLVER = 4

DEFAULT_CONFIG = {
    "schema": CONFIG_SCHEMA_ID,
    "problem": {
        "horizon": None,        # required
        "dim": 1,
        "marks": {"marks": None, "intensities": None},   # required
        "generator": {"form": None, "params": {}, "kappa": None, "p": 2.0,
                      "alpha": None, "gamma": None, "g": 0.0},
        "terminal": {"form": None, "params": {}},
    },
    "method": "tree",
    "grid_steps": None,        # required
    "node_cap": 10_000_000,    # JSON null disables the cap (lattice-only)
    "n_paths": 10_000,
    "basis_degree": 2,
    "seed": 0,
    "picard": {"tol": 1e-9, "max_iter": 25, "q": None},
    "subdivide": {"enabled": False, "safety": 0.5, "c_emp": None, "q": None,
                  "pilot_max_iter": 8},
    "ladder": {"n_list": None, "tol": 1e-3},
    "verify": {"ceiling": DEFAULT_CEILING, "suite": None},
    "out_dir": None,
}


# ---------------------------------------------------------------------------
# config validation
# ---------------------------------------------------------------------------

def _merge_defaults(default, given, path):
    """Recursive merge rejecting unknown keys."""
    if not isinstance(given, dict):
        raise ConfigError(path, f"expected an object, got {type(given).__name__}")
    out = {}
    for key, dval in default.items():
        sub = f"{path}.{key}" if path else key
        if key in given:
            if isinstance(dval, dict) and not key == "params":
                out[key] = _merge_defaults(dval, given[key], sub)
            else:
                out[key] = given[key]
        else:
            out[key] = json.loads(json.dumps(dval))  # deep copy
    unknown = set(given) - set(default)
    if unknown:
        raise ConfigError(f"{path}.{sorted(unknown)[0]}" if path
                          else sorted(unknown)[0], "unknown key rejected")
    return out


def _is_int(x):
    # bool is a subclass of int, but true/false are not counts
    return isinstance(x, int) and not isinstance(x, bool)


def _is_picard_q(x):
    return x is None or (_is_real(x) and 1.0 < x < 2.0)


def _is_reals(x, ok=lambda v: True):
    return (isinstance(x, list) and len(x) >= 1
            and all(_is_real(v) and ok(v) for v in x))


def _require(ok, path, message):
    if not ok:
        raise ConfigError(path, message)


def validate_config(raw):
    """Merge with defaults, reject unknown keys, check field domains."""
    if not isinstance(raw, dict):
        raise ConfigError("<root>", "config must be a JSON object")
    if raw.get("schema") != CONFIG_SCHEMA_ID:
        raise ConfigError("schema",
                          f"must be {CONFIG_SCHEMA_ID!r}, got {raw.get('schema')!r}")
    cfg = _merge_defaults(DEFAULT_CONFIG, raw, "")

    prob = cfg["problem"]
    if not (_is_real(prob["horizon"]) and prob["horizon"] > 0):
        raise ConfigError("problem.horizon",
                          f"must be a positive real, got {prob['horizon']!r}")
    if not (_is_int(prob["dim"]) and prob["dim"] >= 1):
        raise ConfigError("problem.dim", "must be a positive integer")
    marks, intensities = prob["marks"]["marks"], prob["marks"]["intensities"]
    _require(isinstance(marks, list) and len(marks) >= 1
             and all(_is_reals(mark) and any(mark) for mark in marks)
             and len({len(mark) for mark in marks}) == 1,
             "problem.marks.marks", "must be a non-empty list of non-zero "
             "marks, each a list of reals of one length")
    _require(_is_reals(intensities, lambda v: v > 0)
             and len(intensities) == len(marks), "problem.marks.intensities",
             "must list one positive real per mark")
    gen, term = prob["generator"], prob["terminal"]
    for path, spec, forms in (("problem.generator", gen, GENERATOR_FORMS),
                              ("problem.terminal", term, TERMINAL_FORMS)):
        _require(isinstance(spec["form"], str) and spec["form"] in forms,
                 f"{path}.form", f"unknown form {spec['form']!r}; "
                                 f"known: {sorted(forms)}")
        _require(isinstance(spec["params"], dict), f"{path}.params",
                 "must be an object")
        _, schema = forms[spec["form"]]
        try:
            _read_params(schema, spec["params"], prob["dim"], len(marks))
        except ConfigError as e:
            raise ConfigError(f"{path}.{e.path}", e.message) from e
    p = gen["p"]
    _require(_is_real(p) and p >= 1, "problem.generator.p",
             "must be a real >= 1")
    for key, ok, domain in (
            ("kappa", lambda x: x >= 0, "a non-negative real"),
            ("alpha", lambda x: 0 < x < 1, "a real in (0, 1)"),
            ("gamma", lambda x: x >= 0, "a non-negative real")):
        _require(gen[key] is None or (_is_real(gen[key]) and ok(gen[key])),
                 f"problem.generator.{key}", f"must be null or {domain}")
    _require(_is_real(gen["g"]) and gen["g"] >= 0, "problem.generator.g",
             "must be a non-negative real")
    if cfg["method"] not in ("tree", "mc"):
        raise ConfigError("method", "must be 'tree' or 'mc'")
    if not (_is_int(cfg["grid_steps"]) and cfg["grid_steps"] >= 1):
        raise ConfigError("grid_steps", "must be a positive integer")
    if cfg["node_cap"] is not None and not (_is_int(cfg["node_cap"])
                                           and cfg["node_cap"] >= 1):
        raise ConfigError("node_cap", "must be a positive integer or null")
    if not _is_int(cfg["seed"]):
        raise ConfigError("seed", "must be an integer")
    if not (_is_int(cfg["n_paths"]) and cfg["n_paths"] >= 1):
        raise ConfigError("n_paths", "must be a positive integer")
    if not (_is_int(cfg["basis_degree"]) and cfg["basis_degree"] >= 0):
        raise ConfigError("basis_degree", "must be a non-negative integer")
    pic, sub, ver = cfg["picard"], cfg["subdivide"], cfg["verify"]
    _require(_is_real(pic["tol"]) and pic["tol"] >= 0, "picard.tol",
             "must be a non-negative real")
    _require(_is_int(pic["max_iter"]) and pic["max_iter"] >= 1,
             "picard.max_iter", "must be a positive integer")
    _require(_is_picard_q(pic["q"]), "picard.q",
             "must be null or a real in (1, 2)")
    _require(isinstance(sub["enabled"], bool), "subdivide.enabled",
             "must be true or false")
    _require(_is_real(sub["safety"]) and 0 < sub["safety"] < 1,
             "subdivide.safety", "must be a real in (0, 1)")
    _require(sub["c_emp"] is None or (_is_real(sub["c_emp"])
                                      and sub["c_emp"] > 0),
             "subdivide.c_emp", "must be null or a positive real")
    _require(_is_picard_q(sub["q"]), "subdivide.q",
             "must be null or a real in (1, 2)")
    _require(_is_int(sub["pilot_max_iter"]) and sub["pilot_max_iter"] >= 1,
             "subdivide.pilot_max_iter", "must be a positive integer")
    _require(_is_real(cfg["ladder"]["tol"]) and cfg["ladder"]["tol"] >= 0,
             "ladder.tol", "must be a non-negative real")
    _require(_is_real(ver["ceiling"]) and ver["ceiling"] > 0,
             "verify.ceiling", "must be a positive real")
    _require(ver["suite"] in (None, "ci12"), "verify.suite",
             "must be null or 'ci12'")
    n_list = cfg["ladder"]["n_list"]
    _require(n_list is None or (
        _is_reals(n_list, lambda v: v > 0)
        and all(b > a for a, b in zip(n_list, n_list[1:]))),
        "ladder.n_list", "must be an increasing list of positive reals")
    _require(cfg["out_dir"] is None or isinstance(cfg["out_dir"], str),
             "out_dir", "must be null or a string")
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
    """``error`` with its dotted config path prefixed by ``path:line``, when
    the config text (read from ``path`` unless given) has that key."""
    if text is None:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    line = _locate_key(text, error.path)
    if line is None:
        return error
    return ConfigError(f"{path}:{line}: {error.path}", error.message)


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


def _config_fingerprint(cfg):
    blob = json.dumps(_embeddable(cfg), sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()[:12]


def write_report(out_dir, name, body):
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, name)
    doc = {
        "header": {
            "timestamp": datetime.datetime.now(datetime.timezone.utc)
            .isoformat(),
            "tool": f"jumpbsde {__version__}",
        },
        "body": body,
    }
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


def _trace_csv_rows(trace):
    rows = [["iteration", "dy", "dz", "dv", "dist", "ratio"]]
    for r in trace.rows():
        rows.append([r["iteration"], repr(r["dy"]), repr(r["dz"]),
                     repr(r["dv"]), repr(r["dist"]),
                     "" if r["ratio"] is None else repr(r["ratio"])])
    return rows


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def cmd_solve(cfg):
    """Run the configured solve; returns (exit_code, body, files)."""
    problem = _build_problem(cfg)
    ctx = _context_for(cfg, problem)
    pic = cfg["picard"]
    out = _out_dir(cfg)
    fp = _config_fingerprint(cfg)
    files = []

    sub = cfg["subdivide"]
    if sub["enabled"]:
        q = sub["q"] or picard_q(problem.generator.growth_alpha)
        c_emp = sub["c_emp"]
        pilot_trace = None
        if c_emp is None:
            _, pilot_trace = picard_solve(
                problem, cfg["method"], tol=pic["tol"],
                max_iter=sub["pilot_max_iter"], q=q, **ctx)
            r_hat = max(pilot_trace.ratios) if pilot_trace.ratios else 1.0
            c_emp = r_hat / (problem.generator.lipschitz_kappa
                             * problem.grid.horizon ** (1 - q / 2))
        plan = subdivide_horizon(problem.grid.horizon,
                                 problem.generator.lipschitz_kappa, q,
                                 c_emp, sub["safety"])
        if problem.grid.steps % plan.k_intervals:
            raise ConfigError(
                "grid_steps",
                f"{problem.grid.steps} steps not divisible by the "
                f"{plan.k_intervals}-interval plan; use a multiple")
        solution, traces = chained_solve(problem, plan, cfg["method"],
                                         tol=pic["tol"],
                                         max_iter=pic["max_iter"], q=q, **ctx)
        converged = all(t.converged for t in traces)
        trace_dict = {"intervals": [t.to_json_dict() for t in traces]}
        plan_dict = plan.to_json_dict()
        csv_rows = [["interval", "iteration", "dist", "ratio"]]
        for i, t in enumerate(traces):
            for r in t.rows():
                csv_rows.append([i, r["iteration"], repr(r["dist"]),
                                 "" if r["ratio"] is None else repr(r["ratio"])])
        diverged = any(t.diverged for t in traces)
    else:
        solution, trace = picard_solve(problem, cfg["method"], tol=pic["tol"],
                                       max_iter=pic["max_iter"], q=pic["q"],
                                       **ctx)
        converged, diverged = trace.converged, trace.diverged
        trace_dict = trace.to_json_dict()
        plan_dict = None
        csv_rows = _trace_csv_rows(trace)

    body = {
        "schema": "jumpbsde/report/v1",
        "command": "solve",
        "config": _embeddable(cfg),
        "problem_fingerprint": problem.fingerprint(),
        "method": cfg["method"],
        "grid": problem.grid.to_json_dict(),
        "seed": cfg["seed"],
        "y0": solution.y0,
        "norms": _norm_records(solution, problem, cfg["seed"]),
        "picard_trace": trace_dict,
        "subdivision_plan": plan_dict,
        "converged": converged,
        "diverged": diverged,
    }
    files.append(write_report(out, f"solve_{fp}.json", body))
    files.append(write_csv(out, f"solve_{fp}_trace.csv", csv_rows))
    return (EXIT_DIVERGED if diverged and not converged else EXIT_OK,
            body, files)


def cmd_verify(cfg):
    """Solve, then verify the a priori estimates and uniqueness."""
    out = _out_dir(cfg)
    fp = _config_fingerprint(cfg)
    ceiling = cfg["verify"]["ceiling"]
    files = []
    if cfg["verify"]["suite"] == "ci12":
        records = ci_suite(ceiling=ceiling)
        all_passed = all(r["zv"].passed and r["full"].passed for r in records)
        body = {
            "schema": "jumpbsde/report/v1",
            "command": "verify",
            "config": _embeddable(cfg),
            "suite": "ci12",
            "records": [{"driver": r["driver"], "p": r["p"],
                         "horizon": r["horizon"],
                         "zv": r["zv"].to_json_dict(),
                         "full": r["full"].to_json_dict()} for r in records],
            "max_implied_constant": max(
                max(r["zv"].implied_constant, r["full"].implied_constant)
                for r in records),
            "all_passed": all_passed,
        }
        files.append(write_report(out, f"verify_{fp}.json", body))
        files.append(write_csv(out, f"verify_{fp}_suite.csv",
                               ci_suite_csv_rows(records)))
        return (EXIT_OK if all_passed else EXIT_VERIFY_FAILED, body, files)

    problem = _build_problem(cfg)
    ctx = _context_for(cfg, problem)
    pic = cfg["picard"]
    solution, trace = picard_solve(problem, cfg["method"], tol=pic["tol"],
                                   max_iter=pic["max_iter"], q=pic["q"], **ctx)
    if trace.diverged:
        body = {"schema": "jumpbsde/report/v1", "command": "verify",
                "config": _embeddable(cfg), "diverged": True,
                "picard_trace": trace.to_json_dict()}
        files.append(write_report(out, f"verify_{fp}.json", body))
        return EXIT_DIVERGED, body, files

    zv = verify_zv_estimate(solution, problem, ceiling=ceiling)
    full = (verify_full_estimate(solution, problem, ceiling=ceiling)
            if problem.p > 1 else None)
    # the verify solve is the uniqueness experiment's (0, 0, 0) start
    uniq = uniqueness_experiment(problem, cfg["method"], tol=pic["tol"],
                                 q=pic["q"], max_iter=pic["max_iter"],
                                 _first_run=(solution, trace), **ctx)
    all_passed = (zv.passed and (full is None or full.passed)
                  and uniq["passed"] is True)
    body = {
        "schema": "jumpbsde/report/v1",
        "command": "verify",
        "config": _embeddable(cfg),
        "problem_fingerprint": problem.fingerprint(),
        "y0": solution.y0,
        "zv_estimate": zv.to_json_dict(),
        "full_estimate": full.to_json_dict() if full else None,
        "uniqueness": {k: v for k, v in uniq.items() if k != "traces"},
        "all_passed": all_passed,
    }
    files.append(write_report(out, f"verify_{fp}.json", body))
    rows = [["name", "lhs", "rhs_core", "implied_constant", "passed"],
            [zv.name, repr(zv.lhs), repr(zv.rhs_core),
             repr(zv.implied_constant), zv.passed]]
    if full:
        rows.append([full.name, repr(full.lhs), repr(full.rhs_core),
                     repr(full.implied_constant), full.passed])
    files.append(write_csv(out, f"verify_{fp}_estimates.csv", rows))
    files.append(append_estimate_log(out, [zv] + ([full] if full else [])))
    return (EXIT_OK if all_passed else EXIT_VERIFY_FAILED, body, files)


def cmd_ladder(cfg):
    """Run the truncation ladder end to end."""
    if cfg["ladder"]["n_list"] is None:
        raise ConfigError("ladder.n_list", "required for the ladder command")
    problem = _build_problem(cfg)
    ctx = _context_for(cfg, problem)
    out = _out_dir(cfg)
    fp = _config_fingerprint(cfg)
    report = truncation_ladder_solve(problem, cfg["ladder"]["n_list"],
                                     cfg["method"],
                                     tol=cfg["ladder"]["tol"],
                                     max_iter=cfg["picard"]["max_iter"],
                                     check_assumptions=True, **ctx)
    body = {
        "schema": "jumpbsde/report/v1",
        "command": "ladder",
        "config": _embeddable(cfg),
        "problem_fingerprint": problem.fingerprint(),
        "ladder": report.to_json_dict(),
    }
    files = [write_report(out, f"ladder_{fp}.json", body)]
    rows = [["n", "y0", "converged"]]
    for lev in report.levels:
        rows.append([lev["n"], repr(lev["y0"]), lev["converged"]])
    rows.append([])
    rows.append(["n_lo", "n_hi", "measured_d_norm", "bound", "bound_se",
                 "within_bound"])
    for pair in report.pairs:
        rows.append([pair["n_lo"], pair["n_hi"],
                     repr(pair["measured_d_norm"]), repr(pair["bound"]),
                     repr(pair["bound_se"]), pair["within_bound"]])
    files.append(write_csv(out, f"ladder_{fp}.csv", rows))
    return EXIT_OK, body, files


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

    try:
        cfg = load_config(args.config)
        if args.seed is not None:
            cfg["seed"] = args.seed
        if args.out is not None:
            cfg["out_dir"] = args.out
        try:
            code, body, files = COMMANDS[args.command](cfg)
        except ConfigError as e:
            raise _at_line(args.config, e) from e
    except (ConfigError, ValueError, ResourceLimitError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    except (ConditioningError, NumericError) as e:
        print(f"error: solver failure: {e}", file=sys.stderr)
        return EXIT_SOLVER
    for f in files:
        print(f)
    if args.command == "solve" and code == EXIT_DIVERGED:
        print("divergence reported; see the picard trace "
              "(consider subdivide.enabled)", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
