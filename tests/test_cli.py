"""Config-driven CLI: exit codes, reports, reproducibility."""

import copy
import csv
import importlib.util
import io
import json
import math
import os
import pathlib
import subprocess
import sys
import time

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import jumpbsde as jb
from conftest import traced_peak
from jumpbsde import cli
from jumpbsde.errors import ResourceLimitError
from jumpbsde.generators import GENERATOR_FORMS, TERMINAL_FORMS

BASE = {
    "schema": "jumpbsde/run-config/v1",
    "problem": {
        "horizon": 1.0,
        "dim": 1,
        "marks": {"marks": [[1.0]], "intensities": [1.0]},
        "generator": {"form": "affine", "params": {"a": 0.5}},
        "terminal": {"form": "constant", "params": {"value": 1.0}},
    },
    "method": "tree",
    "grid_steps": 10,
    "seed": 7,
}


def _cfg(tmp_path, name="cfg.json", **overrides):
    cfg = copy.deepcopy(BASE)
    for key, val in overrides.items():
        if isinstance(val, dict) and isinstance(cfg.get(key), dict):
            cfg[key] = {**cfg[key], **val}
        else:
            cfg[key] = val
    cfg.setdefault("out_dir", str(tmp_path / "out"))
    path = tmp_path / name
    path.write_text(json.dumps(cfg, indent=1))
    return path, cfg


def _body(report_path):
    with open(report_path) as fh:
        return json.load(fh)["body"]


def test_solve_trivial_constant(tmp_path):
    path, _ = _cfg(tmp_path)
    code = cli.main(["solve", "--config", str(path)])
    assert code == 0
    out = tmp_path / "out"
    reports = [f for f in os.listdir(out) if f.endswith(".json")]
    body = _body(out / reports[0])
    # implicit per-step fixed point: Y0 = (1 - a dt)^(-N), near e^{aT}
    assert abs(body["y0"] - (1 - 0.05) ** -10) < 1e-9
    assert body["converged"]


def test_solve_negative_horizon_names_field(tmp_path, capsys):
    path, _ = _cfg(tmp_path, problem={**copy.deepcopy(BASE["problem"]),
                                      "horizon": -1.0})
    code = cli.main(["solve", "--config", str(path)])
    assert code == 1
    assert "horizon" in capsys.readouterr().err


def test_unknown_key_rejected(tmp_path, capsys):
    cfg = copy.deepcopy(BASE)
    cfg["mystery"] = 1
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert cli.main(["solve", "--config", str(path)]) == 1
    assert "mystery" in capsys.readouterr().err


@pytest.mark.parametrize("field, value", [
    ("problem.horizon", True),
    ("problem.dim", True),
    ("grid_steps", True),
    ("seed", False),
    ("n_paths", 0),
    ("basis_degree", -1),
    ("picard.tol", "x"),
    ("picard.max_iter", 0),
    ("picard.q", 5.0),
    ("subdivide.enabled", "yes"),
    ("subdivide.safety", 1.5),
    ("subdivide.c_emp", -1.0),
    ("subdivide.q", 2.0),
    ("subdivide.pilot_max_iter", 0),
    ("ladder.tol", -1.0),
    ("verify.ceiling", "abc"),
    ("verify.suite", "ci13"),
    ("problem.generator.p", "two"),
    ("out_dir", 5),
    ("out_dir", True),
    ("out_dir", [1]),
    ("problem.generator.kappa", [1]),
    ("problem.generator.kappa", {}),
    ("problem.generator.kappa", True),
    ("problem.generator.kappa", "abc"),
    ("problem.generator.alpha", "x"),
    ("problem.generator.gamma", [1]),
    ("problem.generator.g", [1]),
    ("problem.generator.params", [1]),
    ("problem.generator.form", [1]),
    ("problem.terminal.params", "x"),
    ("problem.marks.intensities", {"a": 1}),
    ("problem.marks.marks", [[True]]),
    ("problem.marks.marks", "x"),
    ("ladder.n_list", [True, 4]),
    ("problem.horizon", math.inf),
    ("n_paths", 1),
    ("subdivide.pilot_max_iter", 1),
])
def test_bad_field_rejected_with_its_path(tmp_path, capsys, field, value):
    _assert_rejected_at(tmp_path / "cfg.json", capsys, field, value)


def _assert_rejected_at(path, capsys, field, value, form=None):
    # ``form``: the form whose params entry ``field`` is, set with no other
    # params
    cfg = copy.deepcopy(BASE)
    cfg["out_dir"] = str(path.parent / "out")
    if form is not None:
        section = field.split(".")[1]
        cfg["problem"][section] = {"form": form, "params": {}}
    *parents, leaf = field.split(".")
    node = cfg
    for key in parents:
        node = node.setdefault(key, {})
    node[leaf] = value
    path.write_text(json.dumps(cfg, indent=1))
    assert cli.main(["solve", "--config", str(path)]) == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert f"{path}:" in err and f": {field}: " in err
    assert "Traceback" not in err


# every config leaf (and each form's params object) with the JSON types its
# domain accepts; "number" covers integers and reals, never booleans
LEAF_TYPES = {
    "schema": {"string"},
    "problem.horizon": {"number"},
    "problem.dim": {"number"},
    "problem.marks.marks": {"array"},
    "problem.marks.intensities": {"array"},
    "problem.generator.form": {"string"},
    "problem.generator.params": {"object"},
    "problem.generator.kappa": {"null", "number"},
    "problem.generator.p": {"number"},
    "problem.generator.alpha": {"null", "number"},
    "problem.generator.gamma": {"null", "number"},
    "problem.generator.g": {"number"},
    "problem.terminal.form": {"string"},
    "problem.terminal.params": {"object"},
    "method": {"string"},
    "grid_steps": {"number"},
    "node_cap": {"null", "number"},
    "n_paths": {"number"},
    "basis_degree": {"number"},
    "seed": {"number"},
    "picard.tol": {"number"},
    "picard.max_iter": {"number"},
    "picard.q": {"null", "number"},
    "subdivide.enabled": {"boolean"},
    "subdivide.safety": {"number"},
    "subdivide.c_emp": {"null", "number"},
    "subdivide.q": {"null", "number"},
    "subdivide.pilot_max_iter": {"number"},
    "ladder.n_list": {"null", "array"},
    "ladder.tol": {"number"},
    "verify.ceiling": {"number"},
    "verify.suite": {"null", "string"},
    "out_dir": {"null", "string"},
}
# each form's params entries, with the JSON types their domain accepts
_NUMBER, _ARRAY = {"number"}, {"array"}
PARAM_TYPES = {
    ("problem.generator", "affine"): {
        "a": _NUMBER, "const": _NUMBER, "b": _ARRAY, "c": _ARRAY},
    ("problem.generator", "lipschitz-smooth"): {
        "ay": _NUMBER, "bz": _ARRAY, "cv": _NUMBER},
    ("problem.generator", "zv-coupled"): {
        "cy": _NUMBER, "cz": _NUMBER, "cv": _NUMBER},
    ("problem.terminal", "constant"): {"value": _NUMBER},
    ("problem.terminal", "brownian-functional"): {
        "kind": {"string"}, "weights": _ARRAY, "scale": _NUMBER,
        "shift": _NUMBER},
    ("problem.terminal", "jump-count"): {
        "weights": _ARRAY, "scale": _NUMBER, "shift": _NUMBER,
        "compensated": {"boolean"}},
    ("problem.terminal", "state-linear"): {
        "brownian_weights": _ARRAY, "jump_weights": _ARRAY,
        "shift": _NUMBER, "compensated": {"boolean"}},
}
# (field, form of a params entry or None, accepted JSON types)
TYPED_FIELDS = ([(field, None, types) for field, types in LEAF_TYPES.items()]
                + [(f"{section}.params.{key}", form, types)
                   for (section, form), entries in PARAM_TYPES.items()
                   for key, types in entries.items()])
_SCALARS = st.one_of(st.none(), st.booleans(), st.integers(-10, 10),
                     st.floats(-1e3, 1e3), st.text(max_size=4))
JSON_VALUES = {
    "null": st.none(),
    "boolean": st.booleans(),
    "number": st.one_of(st.integers(-10 ** 6, 10 ** 6),
                        st.floats(allow_nan=False)),
    "string": st.text(max_size=8),
    "array": st.lists(_SCALARS, max_size=3),
    "object": st.dictionaries(st.text(max_size=4), _SCALARS, max_size=3),
}


def _leaf_paths(schema, path=""):
    for key, entry in schema.items():
        sub = f"{path}.{key}" if path else key
        if isinstance(entry, dict):
            yield from _leaf_paths(entry, sub)
        else:
            yield sub


def test_fuzzed_fields_are_every_leaf_of_the_schema():
    # a new config key or params entry cannot escape the fuzz test below
    assert set(LEAF_TYPES) == set(_leaf_paths(cli.DEFAULT_CONFIG))
    assert ({key: set(entries) for key, entries in PARAM_TYPES.items()}
            == {(section, form): set(schema)
                for section, forms in (("problem.generator", GENERATOR_FORMS),
                                       ("problem.terminal", TERMINAL_FORMS))
                for form, (_, schema) in forms.items()})


@st.composite
def _rejected_leaf(draw):
    field, form, types = draw(st.sampled_from(TYPED_FIELDS))
    kind = draw(st.sampled_from(sorted(set(JSON_VALUES) - types)))
    return field, draw(JSON_VALUES[kind]), form


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(_rejected_leaf())
def test_mistyped_leaf_rejected_with_its_path(tmp_path, capsys, case):
    # a value of a JSON type outside the domain of a leaf or of a form's
    # params entry never starts a run
    _assert_rejected_at(tmp_path / "cfg.json", capsys, *case)


@pytest.mark.parametrize("field, form, value", [
    ("problem.generator.params.a", "affine", [1, 2]),
    ("problem.generator.params.bz", "lipschitz-smooth", "x"),
    ("problem.generator.params.bz", "lipschitz-smooth", [0.5, 0.5]),
    ("problem.generator.params.c", "affine", [True]),
    ("problem.generator.params.cz", "zv-coupled", math.nan),
    ("problem.generator.params.ay", "affine", 1.0),
    ("problem.terminal.params.scale", "brownian-functional", {}),
    ("problem.terminal.params.kind", "brownian-functional", [1]),
    ("problem.terminal.params.kind", "brownian-functional", "cube"),
    ("problem.terminal.params.compensated", "jump-count", 1),
    ("problem.terminal.params.jump_weights", "state-linear", []),
])
def test_bad_params_entry_rejected_with_its_path(tmp_path, capsys, field,
                                                 form, value):
    # wrong type, wrong length, out of an enumeration, or unknown to the form
    _assert_rejected_at(tmp_path / "cfg.json", capsys, field, value, form)


def test_resolved_defaults_are_pinned():
    # report bodies embed the resolved config, so a default that turns from
    # an integer into a real (or back) changes every body
    want = {
        "schema": "jumpbsde/run-config/v1",
        "problem": {
            "horizon": 1.0, "dim": 1,
            "marks": {"marks": [[1.0]], "intensities": [1.0]},
            "generator": {"form": "affine", "params": {"a": 0.5},
                          "kappa": None, "p": 2.0, "alpha": None,
                          "gamma": None, "g": 0.0},
            "terminal": {"form": "constant", "params": {"value": 1.0}}},
        "method": "tree", "grid_steps": 10, "node_cap": 10000000,
        "n_paths": 10000, "basis_degree": 2, "seed": 7,
        "picard": {"tol": 1e-9, "max_iter": 25, "q": None},
        "subdivide": {"enabled": False, "safety": 0.5, "c_emp": None,
                      "q": None, "pilot_max_iter": 8},
        "ladder": {"n_list": None, "tol": 0.001},
        "verify": {"ceiling": 1000.0, "suite": None},
        "out_dir": None,
    }
    assert (json.dumps(cli.validate_config(copy.deepcopy(BASE)),
                       sort_keys=True)
            == json.dumps(want, sort_keys=True))


def test_readme_run_config_example_is_a_resolved_config():
    # the README example lists every key, each value inside its domain
    readme = (pathlib.Path(__file__).resolve().parents[1]
              / "README.md").read_text(encoding="utf-8")
    section = readme[readme.index("### Run config"):]
    example = json.loads(section.split("```json\n", 1)[1].split("```", 1)[0])
    assert cli.validate_config(copy.deepcopy(example)) == example


def test_error_line_follows_the_dotted_path(tmp_path, capsys):
    # "q" appears under picard first; the bad one is subdivide.q
    cfg = {**copy.deepcopy(BASE), "picard": {"q": 1.5},
           "subdivide": {"enabled": True, "q": 5.0}}
    path = tmp_path / "cfg.json"
    text = json.dumps(cfg, indent=1)
    path.write_text(text)
    line = next(i for i, row in enumerate(text.splitlines(), start=1)
                if row.strip() == '"q": 5.0')
    assert cli.main(["solve", "--config", str(path)]) == cli.EXIT_CONFIG
    assert f"{path}:{line}: subdivide.q: " in capsys.readouterr().err


@pytest.mark.parametrize("method, built", [
    ("tree", {"build_scenario_tree": 1, "simulate_paths": 0}),
    ("mc", {"build_scenario_tree": 0, "simulate_paths": 1}),
])
def test_solve_sets_up_through_the_cli_constructors(tmp_path, monkeypatch,
                                                    method, built):
    # the benchmark times set-up by wrapping these two cli names: the run
    # must build its tree or batch through them, once
    calls = dict.fromkeys(built, 0)
    for name in calls:
        def counted(*args, _name=name, _fn=getattr(cli, name), **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)
        monkeypatch.setattr(cli, name, counted)
    path, _ = _cfg(tmp_path, method=method, grid_steps=4, n_paths=500)
    assert cli.main(["solve", "--config", str(path)]) == 0
    assert calls == built


def test_mc_uniqueness_replicates_use_the_run_batch(tmp_path, monkeypatch):
    # the standard-error replicates simulate batches of the configured size
    # at seeds seed + 1000 + r; the run's own batch is built through the cli
    from jumpbsde import solver
    batches = []
    simulate = solver.simulate_paths

    def recorded(grid, marks, d, n_paths, seed, *args, **kwargs):
        batches.append((n_paths, seed))
        return simulate(grid, marks, d, n_paths, seed, *args, **kwargs)
    monkeypatch.setattr(solver, "simulate_paths", recorded)
    path, _ = _cfg(tmp_path, method="mc", grid_steps=4, n_paths=300)
    assert cli.main(["verify", "--config", str(path)]) in (0, 3)
    assert batches == [(300, 1007), (300, 1008), (300, 1009), (300, 1010)]


def test_mc_verify_builds_its_batch_representation_once(tmp_path,
                                                        monkeypatch):
    # the uniqueness starts run on the verify solve's representation: one
    # for the run batch and one per standard-error replicate (4), each with
    # a basis for every step but the first (19); a representation of the
    # experiment's own gives the same bits
    from jumpbsde import estimates, solver
    built = dict.fromkeys(("_PathBatch", "_StepBasis"), 0)
    for name in built:
        def counted(self, *args, _name=name,
                    _init=getattr(solver, name).__init__, **kwargs):
            built[_name] += 1
            _init(self, *args, **kwargs)
        monkeypatch.setattr(getattr(solver, name), "__init__", counted)
    path, _ = _cfg(tmp_path, method="mc", grid_steps=20, n_paths=2000)
    assert cli.main(["verify", "--config", str(path)]) in (0, 3)
    assert built == {"_PathBatch": 5, "_StepBasis": 95}
    out = tmp_path / "out"
    body = _body(out / [f for f in os.listdir(out) if f.endswith(".json")][0])
    cfg = cli.load_config(str(path))
    problem = cli._build_problem(cfg)
    uniq = estimates.uniqueness_experiment(
        problem, "mc", tol=cfg["picard"]["tol"], q=cfg["picard"]["q"],
        max_iter=cfg["picard"]["max_iter"], **cli._context_for(cfg, problem))
    del uniq["traces"]
    assert json.dumps(uniq, sort_keys=True) == json.dumps(
        body["uniqueness"], sort_keys=True)


def test_verify_reuses_its_solve_and_passes_max_iter(tmp_path, monkeypatch,
                                                     capsys):
    # the verify solve is the uniqueness experiment's (0, 0, 0) start, and
    # picard.max_iter reaches the (10, 1, 1) start. Y is deterministic here,
    # so Z = V = 0: the (0, 0, 0) start has them right from its first sweep
    # and converges at the second, run once; the (10, 1, 1) start, whose
    # first sweep freezes Z = V = 1, needs a third and stops at two. The
    # checks pass, but a start whose solution the report compares did not
    # converge, so the run exits 2
    from jumpbsde import solver
    sweeps = []
    backward = solver._backward

    def counted(*args, **kwargs):
        sweeps.append(1)
        return backward(*args, **kwargs)
    monkeypatch.setattr(solver, "_backward", counted)
    path, _ = _cfg(
        tmp_path, grid_steps=6, picard={"max_iter": 2},
        problem={**copy.deepcopy(BASE["problem"]),
                 "generator": {"form": "zv-coupled",
                               "params": {"cy": 0.3, "cz": 0.3, "cv": 0.3}}})
    assert cli.main(["verify", "--config", str(path)]) == cli.EXIT_DIVERGED
    assert len(sweeps) == 2 + 2
    assert "did not converge" in capsys.readouterr().err
    out = tmp_path / "out"
    body = _body(out / [f for f in os.listdir(out) if f.endswith(".json")][0])
    assert body["all_passed"] is True
    assert body["uniqueness"]["conclusive"] is True


def _stopped_solve_config(tmp_path, **overrides):
    # f = -2 lambda v, xi = N_T (the stopped ladder rung's problem): one
    # Picard iteration ends far from the fixed point, y0 ~ -1.0078
    return _cfg(
        tmp_path,
        problem={**copy.deepcopy(BASE["problem"]),
                 "generator": {"form": "affine", "params": {"c": [-2.0]}},
                 "terminal": {"form": "jump-count", "params": {}}},
        grid_steps=64, node_cap=None, **overrides)


def test_solve_stopped_at_max_iter_exits_2(tmp_path, capsys):
    path, _ = _stopped_solve_config(tmp_path, picard={"max_iter": 1})
    assert cli.main(["solve", "--config", str(path)]) == cli.EXIT_DIVERGED
    err = capsys.readouterr().err
    assert "did not converge" in err and "subdivide.enabled" in err
    # N + 2 sweeps reach the direct solve (tests/test_picard_exact.py)
    assert ("on a grid of 64 steps, picard.max_iter 66 reaches the direct "
            "backward solve unless the divergence rule stops the run first "
            "or the iterate overflows (exit 4)") in err
    out = tmp_path / "out"
    body = _body(out / [f for f in os.listdir(out) if f.endswith(".json")][0])
    assert body["converged"] is False and body["diverged"] is False


def test_subdivided_solve_with_stopped_intervals_exits_2(tmp_path):
    # a supplied c_emp: no pilot runs, and every interval stops at one
    # iteration
    path, _ = _stopped_solve_config(
        tmp_path, picard={"max_iter": 1},
        subdivide={"enabled": True, "c_emp": 0.33, "q": 1.5})
    assert cli.main(["solve", "--config", str(path)]) == cli.EXIT_DIVERGED
    out = tmp_path / "out"
    body = _body(out / [f for f in os.listdir(out) if f.endswith(".json")][0])
    intervals = body["picard_trace"]["intervals"]
    assert len(intervals) > 1
    assert not any(t["converged"] for t in intervals)
    assert body["converged"] is False


def test_a_stopped_pilot_does_not_set_the_exit_code(tmp_path):
    # the pilot only calibrates c_emp: it stops unconverged after two
    # iterations, whose one ratio plans a single interval; its solution is
    # not reported
    path, _ = _cfg(
        tmp_path, grid_steps=16, node_cap=None,
        subdivide={"enabled": True, "pilot_max_iter": 2},
        problem={**copy.deepcopy(BASE["problem"]),
                 "generator": {"form": "zv-coupled",
                               "params": {"cz": 0.3, "cv": 0.3}},
                 "terminal": {"form": "brownian-functional",
                              "params": {"kind": "square"}}})
    assert cli.main(["solve", "--config", str(path)]) == cli.EXIT_OK
    out = tmp_path / "out"
    body = _body(out / [f for f in os.listdir(out) if f.endswith(".json")][0])
    assert body["subdivision_plan"]["breakpoints"] == [0.0, 1.0]
    assert body["converged"] is True


def test_verify_stops_before_the_estimates_of_an_unconverged_solve(
        tmp_path, capsys):
    # the benchmark's tree-verify problem, with too few Picard iterations
    spec = importlib.util.spec_from_file_location(
        "workloads", pathlib.Path(__file__).resolve().parents[1]
        / "perfbench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    _, cfg = workloads.make_run("tree-verify", 0)
    cfg["picard"] = {"max_iter": 2}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    code = cli.main(["verify", "--config", str(path), "--out",
                     str(tmp_path / "out")])
    assert code == cli.EXIT_DIVERGED
    err = capsys.readouterr().err
    # verify reads no subdivide setting, so the hint names none
    assert "did not converge" in err and "picard.max_iter" in err
    assert "subdivide" not in err
    out = tmp_path / "out"
    assert [f for f in os.listdir(out) if not f.endswith(".json")] == []
    body = _body(out / [f for f in os.listdir(out) if f.endswith(".json")][0])
    assert body["converged"] is False and body["diverged"] is False
    assert "zv_estimate" not in body
    assert body["picard_trace"]["n_iter"] == 2


@pytest.mark.parametrize("overrides", [
    # rank-deficient regression: more basis functions than paths
    {"method": "mc", "grid_steps": 4, "n_paths": 4, "basis_degree": 4},
    # the first step back overflows: no finite fixed point; numpy prints
    # no warning before the error line
    pytest.param({"problem": {**BASE["problem"],
                              "generator": {"form": "affine",
                                            "params": {"a": 5.0}},
                              "terminal": {"form": "constant",
                                           "params": {"value": 1e308}}}},
                 marks=pytest.mark.filterwarnings("error::RuntimeWarning")),
], ids=["conditioning", "numeric"])
def test_solver_failure_exits_4(tmp_path, capsys, overrides):
    path, _ = _cfg(tmp_path, **overrides)
    assert cli.main(["solve", "--config", str(path)]) == cli.EXIT_SOLVER == 4
    err = capsys.readouterr().err
    assert err.startswith("error: solver failure:")
    assert "Traceback" not in err


def test_a_huge_basis_degree_exits_4_before_listing_its_basis(tmp_path):
    # C(2 + 10^6, 2) basis functions for 50 paths: rejected by their count,
    # in a child killed after 5 s (listing them would never end)
    path, _ = _cfg(tmp_path, method="mc", grid_steps=4, n_paths=50,
                   basis_degree=1_000_000)
    res = subprocess.run(
        [sys.executable, "-m", "jumpbsde.cli", "solve", "--config",
         str(path)], capture_output=True, text=True, timeout=5)
    assert res.returncode == cli.EXIT_SOLVER
    assert "rank-deficient: 500001500001 basis functions for 50 paths" in (
        res.stderr)
    assert "Traceback" not in res.stderr


# f = 2 y against a declared kappa of 0.5: the config is wrong
_TWO_Y = {"form": "affine", "params": {"a": 2}, "kappa": 0.5}


@pytest.mark.parametrize("command, overrides, generator", [
    ("solve", {}, _TWO_Y), ("verify", {}, _TWO_Y), ("ladder", {}, _TWO_Y),
    # a given c_emp skips the pilot solve: the chained solve checks kappa
    ("solve", {"grid_steps": 8,
               "subdivide": {"enabled": True, "c_emp": 1.0}}, _TWO_Y),
    # each built-in form's modulus 2 (sin y near y = 0, |z| and ||v|| on
    # pairs of one sign) against a declared 1.8: the sampled cloud reaches
    # the points that show it
    ("solve", {}, {"form": "affine", "params": {"c": [2.0]}, "kappa": 1.8}),
    ("solve", {}, {"form": "lipschitz-smooth", "params": {"ay": 2.0},
                   "kappa": 1.8}),
    ("solve", {}, {"form": "zv-coupled", "params": {"cz": 2.0},
                   "kappa": 1.8}),
    ("solve", {}, {"form": "zv-coupled", "params": {"cv": 2.0},
                   "kappa": 1.8}),
], ids=["solve", "verify", "ladder", "solve-subdivided", "affine-c",
        "lipschitz-smooth-ay", "zv-coupled-cz", "zv-coupled-cv"])
def test_broken_lipschitz_modulus_exits_1_at_kappa(tmp_path, capsys,
                                                    command, overrides,
                                                    generator):
    problem = copy.deepcopy(BASE["problem"])
    problem["generator"] = generator
    path, _ = _cfg(tmp_path, problem=problem, ladder={"n_list": [1, 4]},
                   **overrides)
    text = path.read_text()
    line = next(i for i, row in enumerate(text.splitlines(), start=1)
                if row.strip().startswith('"kappa": '))
    assert cli.main([command, "--config", str(path)]) == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert f"{path}:{line}: problem.generator.kappa: " in err
    # the worst pair prints plain numbers
    assert "'distance': " in err and "np.float64" not in err
    assert "Traceback" not in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["solve", "verify", "ladder"])
def test_broken_growth_bound_exits_1_at_alpha(tmp_path, capsys, command):
    # f = 0.5 y + z grows linearly in z against a declared
    # 0.1 (g + |y| + |z| + ||v||)^0.5: the config is wrong
    problem = copy.deepcopy(BASE["problem"])
    problem["generator"] = {"form": "affine", "params": {"a": 0.5, "b": [1.0]},
                            "alpha": 0.5, "gamma": 0.1}
    path, _ = _cfg(tmp_path, problem=problem, ladder={"n_list": [1, 4]})
    line = next(i for i, row in enumerate(path.read_text().splitlines(),
                                          start=1)
                if row.strip().startswith('"alpha": '))
    assert cli.main([command, "--config", str(path)]) == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert f"{path}:{line}: problem.generator.alpha: " in err
    assert "exceeds the declared growth bound" in err
    assert "'z': [" in err and "np.float64" not in err
    assert "Traceback" not in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["solve", "verify", "ladder"])
def test_an_overflowing_driver_exits_1_at_the_generator(tmp_path, capsys,
                                                        command):
    # at p = 1e6 the sectional norm |v|^p overflows beyond |v| = 1, so the
    # driver's cv ||v|| term is inf at some sampled pairs: the check says
    # so, with no numpy warning (the suite makes one an error), instead of
    # holding a modulus of inf against the declared kappa
    problem = copy.deepcopy(BASE["problem"])
    problem["generator"] = {"form": "lipschitz-smooth",
                            "params": {"ay": 0.5, "bz": [0.25], "cv": 0.25},
                            "p": 1e6}
    path, _ = _cfg(tmp_path, problem=problem, ladder={"n_list": [1, 4]})
    line = next(i for i, row in enumerate(path.read_text().splitlines(),
                                          start=1)
                if row.strip().startswith('"generator": '))
    assert cli.main([command, "--config", str(path)]) == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}:{line}: problem.generator: the "
                          "driver is not finite at the worst sampled pair ")
    assert "'df': inf" in err and "kappa" not in err
    assert err.count("\n") == 1
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command, overrides, want", [
    ("solve", {}, "the norms are not finite at p = 1e+06: sp inf"),
    ("solve", {"node_cap": None}, "the norms are not finite at p = 1e+06: "
                                  "sp inf"),
    ("solve", {"method": "mc", "n_paths": 500},
     "the norms are not finite at p = 1e+06: sp inf, mp inf, lp inf"),
    ("verify", {}, "the zv-vs-y estimate is not finite at p = 1e+06: "
                   "lhs inf, rhs_core inf"),
], ids=["tree", "lattice", "mc", "verify"])
def test_a_norm_that_overflows_at_a_huge_p_exits_4(tmp_path, capsys, command,
                                                   overrides, want):
    # the driver stays finite at p = 1e6, but |Y|^p and |Z|^p overflow in
    # the reported norms and estimates: a solver failure, with no numpy
    # warning (the suite makes one an error) and no report with inf or NaN
    problem = copy.deepcopy(BASE["problem"])
    problem["generator"]["p"] = 1e6
    problem["terminal"] = {"form": "state-linear",
                           "params": {"brownian_weights": [1.0],
                                      "jump_weights": [0.5]}}
    path, _ = _cfg(tmp_path, problem=problem, grid_steps=8, **overrides)
    assert cli.main([command, "--config", str(path)]) == cli.EXIT_SOLVER
    err = capsys.readouterr().err
    assert err.startswith(f"error: solver failure: {want}")
    assert err.count("\n") == 1
    assert not list((tmp_path / "out").glob("*"))


def test_a_kept_growth_bound_solves(tmp_path):
    # f = 0.5 y has no (z, v)-increment: any declared (alpha, gamma) holds
    problem = copy.deepcopy(BASE["problem"])
    problem["generator"] = {**problem["generator"], "alpha": 0.5,
                            "gamma": 0.1}
    path, _ = _cfg(tmp_path, problem=problem)
    assert cli.main(["solve", "--config", str(path)]) == cli.EXIT_OK


@pytest.mark.parametrize("value", ["abc", True, -5, 2.5])
def test_bad_node_cap_rejected_with_its_path(tmp_path, capsys, value):
    path, _ = _cfg(tmp_path, node_cap=value)
    assert cli.main(["solve", "--config", str(path)]) == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert f"{path}:" in err and ": node_cap: " in err
    assert "Traceback" not in err


@pytest.mark.parametrize("command, key, overrides, message", [
    ("solve", "node_cap", {"grid_steps": 3, "node_cap": 1},
     "scenario tree would have 64 leaf nodes (4^3), exceeding the node cap 1"),
    ("verify", "node_cap", {"grid_steps": 4, "node_cap": None},
     "a path functional requires explicit node enumeration: 256 leaves "
     "exceed the node cap (disabled)"),
    # 20 marks: (8 + 1)^(1 + 20) > 2^62
    ("solve", "grid_steps",
     {"grid_steps": 8, "node_cap": None,
      "problem": {**BASE["problem"],
                  "marks": {"marks": [[1.0 + i] for i in range(20)],
                            "intensities": [0.05] * 20}}},
     "state coding overflows"),
], ids=["node-cap", "path-functional", "state-coding"])
def test_tree_over_its_caps_exits_1_at_the_cap(tmp_path, capsys, command,
                                               key, overrides, message):
    path, _ = _cfg(tmp_path, **overrides)
    line = next(i for i, row in enumerate(path.read_text().splitlines(),
                                          start=1)
                if row.strip().startswith(f'"{key}": '))
    assert cli.main([command, "--config", str(path)]) == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}:{line}: {key}: {message}")
    assert "Traceback" not in err


def test_a_grid_too_coarse_for_kappa_exits_1_at_grid_steps(tmp_path,
                                                            capsys):
    # f = 50 y on 2 steps of a unit horizon: kappa*dt = 25, and the
    # per-step fixed point is no contraction
    problem = copy.deepcopy(BASE["problem"])
    problem["generator"] = {"form": "affine", "params": {"a": 50.0}}
    path, _ = _cfg(tmp_path, problem=problem, grid_steps=2)
    line = next(i for i, row in enumerate(path.read_text().splitlines(),
                                          start=1)
                if row.strip().startswith('"grid_steps": '))
    assert cli.main(["solve", "--config", str(path)]) == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}:{line}: grid_steps: kappa*dt = 25 "
                          ">= 1; refine the grid")
    assert "Traceback" not in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("method, horizon", [("tree", 1e300), ("mc", 1e6)])
def test_a_coarse_grid_exits_1_before_the_terminal_is_evaluated(
        tmp_path, capsys, method, horizon):
    # exp of the Brownian values at dt = horizon / 4 overflows; kappa*dt is
    # checked before the tree or the batch is built and the terminal is
    # evaluated, so stderr holds the error line and nothing else (the suite
    # turns a numpy RuntimeWarning into an error)
    problem = {**copy.deepcopy(BASE["problem"]), "horizon": horizon,
               "terminal": {"form": "brownian-functional",
                            "params": {"kind": "exp"}}}
    path, _ = _cfg(tmp_path, problem=problem, grid_steps=4, method=method,
                   **({"n_paths": 50} if method == "mc" else {}))
    assert cli.main(["solve", "--config", str(path)]) == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}:") and err.count("\n") == 1
    assert "grid_steps: kappa*dt = " in err and ">= 1; refine the grid" in err


def test_a_batch_whose_steps_always_jump_exits_1_at_the_intensities(
        tmp_path, capsys):
    # lambda*dt = 2.5e5: the step's jump probability 1 - exp(-lambda dt) is
    # 1.0, and the batch would divide its jump targets by p (1 - p) = 0; the
    # tree solves the same problem
    problem = {**copy.deepcopy(BASE["problem"]),
               "marks": {"marks": [[1.0]], "intensities": [1e6]}}
    path, _ = _cfg(tmp_path, problem=problem, grid_steps=4)
    assert cli.main(["solve", "--config", str(path)]) == cli.EXIT_OK
    path, _ = _cfg(tmp_path, "mc.json", problem=problem, grid_steps=4,
                   method="mc", n_paths=50)
    line = next(i for i, row in enumerate(path.read_text().splitlines(),
                                          start=1)
                if row.strip().startswith('"intensities": '))
    capsys.readouterr()
    assert cli.main(["solve", "--config", str(path)]) == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}:{line}: problem.marks.intensities: "
                          "lambda_0*dt = 250000: ")
    assert err.count("\n") == 1


def test_a_batch_over_its_event_cap_exits_1_at_n_paths(tmp_path, capsys):
    # lambda*T*n_paths = 5e7 expected jump events, above the 1e7 cap; kappa
    # = 0 and lambda*dt = 20 pass the grid checks, so the cap stops the run,
    # before any variate is drawn
    problem = {**copy.deepcopy(BASE["problem"]), "horizon": 1e6,
               "generator": {"form": "affine", "params": {}}}
    path, _ = _cfg(tmp_path, problem=problem, grid_steps=50_000,
                   method="mc", n_paths=50)
    line = next(i for i, row in enumerate(path.read_text().splitlines(),
                                          start=1)
                if row.strip().startswith('"n_paths": '))
    start = time.perf_counter()
    assert cli.main(["solve", "--config", str(path)]) == cli.EXIT_CONFIG
    assert time.perf_counter() - start < 5.0
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}:{line}: n_paths: 50 paths expect "
                          "Lambda*T*n_paths = 5e+07 jump events, above the "
                          "event cap 10000000")
    assert err.count("\n") == 1 and "Traceback" not in err
    assert not (tmp_path / "out").exists()


def test_a_batch_over_its_variate_cap_exits_1_at_n_paths(tmp_path, capsys):
    # 10^6 paths of 10^6 steps need 10^12 Brownian increments (7.28 TiB),
    # far above the 1e8 cap; lambda = 1e-9 passes the event cap, and the
    # variate cap stops the run before the jump part or any variate is drawn
    problem = {**copy.deepcopy(BASE["problem"]),
               "marks": {"marks": [[1.0]], "intensities": [1e-9]}}
    path, _ = _cfg(tmp_path, problem=problem, grid_steps=1_000_000,
                   method="mc", n_paths=1_000_000)
    line = next(i for i, row in enumerate(path.read_text().splitlines(),
                                          start=1)
                if row.strip().startswith('"n_paths": '))
    code, _, peak = traced_peak(cli.main, ["solve", "--config", str(path)])
    assert code == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert err == (f"error: {path}:{line}: n_paths: 1000000 paths of 1000000 "
                   "steps in dimension 1 need n_paths*grid_steps*dim = "
                   "1e+12 Brownian increments, above the variate cap "
                   "100000000\n")
    assert not (tmp_path / "out").exists()
    # what is left is the grid's O(grid_steps) set-up, about 17 MB
    assert peak < 2 ** 25


def test_a_lattice_over_its_state_cap_exits_1_at_grid_steps(tmp_path,
                                                            capsys):
    # 10^5 steps with node_cap null: sum_k n_k = sum_k (k+1)^2, about
    # 3.3e14 states, far above the 1e8 cap; the count is checked from
    # integers before the build allocates anything (its scratch alone would
    # take 149 GiB)
    path, _ = _cfg(tmp_path, grid_steps=100_000, node_cap=None)
    line = next(i for i, row in enumerate(path.read_text().splitlines(),
                                          start=1)
                if row.strip().startswith('"grid_steps": '))
    assert cli.main(["solve", "--config", str(path)]) == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert err == (f"error: {path}:{line}: grid_steps: the lattice would "
                   "have more than 100000000 states over its 100001 depths, "
                   "the lattice state cap\n")
    assert not (tmp_path / "out").exists()
    grid = jb.make_time_grid(1.0, 100_000)
    marks = jb.make_mark_space([[1.0]], [1.0])

    def build():
        with pytest.raises(ResourceLimitError) as info:
            jb.build_scenario_tree(grid, marks, 1, node_cap=None)
        return info.value

    error, _, peak = traced_peak(build)
    assert error.setting == "grid_steps" and peak < 8192


def test_an_error_at_a_default_setting_names_the_file(tmp_path, capsys):
    # no node_cap key: its default 10 000 000 is below 4^12 leaves, and the
    # key has no line to point at
    path, cfg = _cfg(tmp_path, grid_steps=12)
    assert "node_cap" not in cfg
    assert cli.main(["solve", "--config", str(path)]) == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith(
        f"error: {path}: node_cap (default): scenario tree would have "
        "16777216 leaf nodes (4^12), exceeding the node cap 10000000")
    assert "Traceback" not in err
    assert not (tmp_path / "out").exists()


def test_a_config_that_is_not_an_object_names_the_file(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text("[1, 2]")
    assert cli.main(["solve", "--config", str(path)]) == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: <root>: must be an object")
    assert "Traceback" not in err


# exp(800 B_T) overflows on the states where B_T > 0.89 (N = 8)
_OVERFLOWING_TERMINAL = {**BASE["problem"], "terminal": {
    "form": "brownian-functional",
    "params": {"kind": "exp", "weights": [800.0]}}}


@pytest.mark.parametrize("command, key, overrides", [
    # K = 10^8, 10^20 and 10^200 intervals for 8 steps: rejected before
    # anything of the plan's size is built, with no overflow
    *(("solve", "grid_steps", {"subdivide": {"enabled": True, "c_emp": c}})
      for c in (100, 1e6, 1e100)),
    # a terminal value that is not finite, rejected before any solve and
    # before the first ladder rung, whose clamped terminal is finite
    *((command, "problem.terminal",
       {"method": method, "problem": _OVERFLOWING_TERMINAL})
      for command in ("solve", "verify", "ladder")
      for method in ("tree", "mc")),
], ids=["c_emp-100", "c_emp-1e6", "c_emp-1e100"] + [
    f"{command}-{method}-terminal" for command in ("solve", "verify", "ladder")
    for method in ("tree", "mc")])
def test_unusable_input_exits_1_at_its_setting(tmp_path, capsys, command,
                                                key, overrides):
    path, _ = _cfg(tmp_path, grid_steps=8, n_paths=100,
                   ladder={"n_list": [1, 4]}, **overrides)
    leaf = key.rsplit(".", 1)[-1]
    line = next(i for i, row in enumerate(path.read_text().splitlines(),
                                          start=1)
                if row.strip().startswith(f'"{leaf}": '))
    code, _, peak = traced_peak(cli.main, [command, "--config", str(path)])
    assert code == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}:{line}: {key}: ")
    assert err.count("\n") == 1
    assert "Traceback" not in err and "RuntimeWarning" not in err
    assert not (tmp_path / "out").exists()
    if key == "grid_steps":
        assert peak < 2 ** 20


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_overflowing_iterate_exits_4(tmp_path, capsys):
    # every per-step fixed point converges, but the Z projection of Y values
    # near 1.6e308 overflows; N=8 is the smallest grid on which it does, and
    # numpy prints no warning before the error line
    path, _ = _cfg(tmp_path,
                   problem={**copy.deepcopy(BASE["problem"]),
                            "terminal": {"form": "constant",
                                         "params": {"value": 1e308}}},
                   grid_steps=8)
    assert cli.main(["solve", "--config", str(path)]) == cli.EXIT_SOLVER
    err = capsys.readouterr().err
    assert err.startswith("error: solver failure:") and "not finite" in err


def test_solve_divergent_exits_2(tmp_path):
    path, _ = _cfg(
        tmp_path,
        problem={**copy.deepcopy(BASE["problem"]),
                 "horizon": 10.0,
                 "generator": {"form": "zv-coupled",
                               "params": {"cz": 5.0, "cv": 5.0}},
                 "terminal": {"form": "brownian-functional",
                              "params": {"kind": "square"}}},
        grid_steps=60,
        node_cap=None,
        picard={"max_iter": 12},
    )
    code = cli.main(["solve", "--config", str(path)])
    assert code == 2


def test_solve_with_subdivision(tmp_path):
    # kappa=2, T=8 diverges single-shot; a supplied c_emp (calibrated on a
    # short seed problem) yields a 14-interval plan under which it converges
    path, _ = _cfg(
        tmp_path,
        problem={**copy.deepcopy(BASE["problem"]),
                 "horizon": 8.0,
                 "generator": {"form": "zv-coupled",
                               "params": {"cz": 2.0, "cv": 2.0}},
                 "terminal": {"form": "brownian-functional",
                              "params": {"kind": "square"}}},
        grid_steps=56,
        node_cap=None,
        subdivide={"enabled": True, "c_emp": 0.4563, "safety": 0.8,
                   "q": 1.5},
    )
    assert cli.main(["solve", "--config", str(path)]) == 0
    out = tmp_path / "out"
    body = _body(out / [f for f in os.listdir(out) if f.endswith(".json")][0])
    assert body["converged"]
    assert body["subdivision_plan"]["breakpoints"][-1] == 8.0
    assert len(body["subdivision_plan"]["breakpoints"]) == 15   # K = 14


@pytest.mark.parametrize("generator", [
    # Z and V vanish, so every pilot ratio is 0
    {"form": "affine", "params": {"a": 0.5}},
    # kappa = 0: the calibration has nothing to divide by
    {"form": "affine", "params": {"const": 0.5}, "kappa": 0},
], ids=["zero-ratios", "zero-kappa"])
def test_zero_calibrated_c_emp_gives_one_interval(tmp_path, capsys,
                                                  generator):
    path, _ = _cfg(tmp_path, grid_steps=8, subdivide={"enabled": True},
                   problem={**copy.deepcopy(BASE["problem"]),
                            "generator": generator})
    assert cli.main(["solve", "--config", str(path)]) == 0
    assert "Traceback" not in capsys.readouterr().err
    out = tmp_path / "out"
    body = _body(out / [f for f in os.listdir(out) if f.endswith(".json")][0])
    plan = body["subdivision_plan"]
    assert plan["c_emp"] == 0.0 and plan["interval_bound"] == 0.0
    assert plan["breakpoints"] == [0.0, 1.0] and body["converged"]


def test_a_pilot_converged_before_any_ratio_gives_one_interval(tmp_path):
    # the zero driver from a zero terminal: the pilot's first sweep changes
    # nothing, so it converges without measuring a ratio and calibrates
    # c_emp = 0 (a fallback ratio of 1 would plan 16 intervals)
    path, _ = _cfg(tmp_path, grid_steps=16, node_cap=None,
                   subdivide={"enabled": True},
                   problem={**copy.deepcopy(BASE["problem"]),
                            "generator": {"form": "affine", "kappa": 0.5},
                            "terminal": {"form": "constant",
                                         "params": {"value": 0.0}}})
    assert cli.main(["solve", "--config", str(path)]) == cli.EXIT_OK
    out = tmp_path / "out"
    body = _body(out / [f for f in os.listdir(out) if f.endswith(".json")][0])
    plan = body["subdivision_plan"]
    assert plan["c_emp"] == 0.0 and plan["breakpoints"] == [0.0, 1.0]
    assert body["converged"]


def test_subdivided_solve_checks_lipschitz_once(tmp_path, monkeypatch):
    # the pilot solve that calibrates c_emp checks the declared kappa; the
    # chained solve after it does not check it again
    from jumpbsde import solver
    calls, check = [], solver.check_lipschitz

    def counted(*args, **kwargs):
        calls.append(1)
        return check(*args, **kwargs)
    monkeypatch.setattr(solver, "check_lipschitz", counted)
    path, _ = _cfg(
        tmp_path, grid_steps=8, subdivide={"enabled": True},
        problem={**copy.deepcopy(BASE["problem"]),
                 "generator": {"form": "zv-coupled",
                               "params": {"cz": 0.3, "cv": 0.3}},
                 "terminal": {"form": "brownian-functional",
                              "params": {"kind": "square"}}})
    assert cli.main(["solve", "--config", str(path)]) == 0
    assert len(calls) == 1


def test_verify_trivial_passes(tmp_path):
    path, _ = _cfg(tmp_path, grid_steps=6)
    assert cli.main(["verify", "--config", str(path)]) == 0


def test_verify_tampered_ceiling_exits_3(tmp_path):
    path, _ = _cfg(tmp_path, grid_steps=6, verify={"ceiling": 1e-9})
    assert cli.main(["verify", "--config", str(path)]) == 3


def test_verify_suite_csv_has_12_rows(tmp_path):
    path, _ = _cfg(tmp_path, grid_steps=6, verify={"suite": "ci12"})
    assert cli.main(["verify", "--config", str(path)]) == 0
    out = tmp_path / "out"
    suite_csv = [f for f in os.listdir(out) if f.endswith("_suite.csv")][0]
    rows = (out / suite_csv).read_text().strip().splitlines()
    assert len(rows) == 13   # header + 12 instances


def _csv_text(value):
    """The text of a CSV cell that holds ``value``."""
    buf = io.StringIO()
    csv.writer(buf).writerow([value])
    return next(csv.reader(io.StringIO(buf.getvalue())))[0]


def _trace_rows(trace, keys):
    """Per iteration: its number, its values of ``keys``, its ratio."""
    ratios = trace["ratios"]
    return [[i + 1, *(trace[key][i] for key in keys),
             ratios[i - 1] if 1 <= i <= len(ratios) else None]
            for i in range(trace["n_iter"])]


def _want_csv(command, body):
    """The rows a report's CSV table holds, from its body values."""
    if command == "verify":
        return [["name", "lhs", "rhs_core", "implied_constant", "passed"]] + [
            [est[key] for key in ("name", "lhs", "rhs_core",
                                  "implied_constant", "passed")]
            for est in (body["zv_estimate"], body["full_estimate"])]
    if command == "ladder":
        ladder = body["ladder"]
        return ([["n", "y0", "converged"]]
                + [[lev["n"], lev["y0"], lev["converged"]]
                   for lev in ladder["levels"]] + [[]]
                + [["n_lo", "n_hi", "measured_d_norm", "bound", "bound_se",
                    "within_bound"]]
                + [[pair[key] for key in ("n_lo", "n_hi", "measured_d_norm",
                                          "bound", "bound_se",
                                          "within_bound")]
                   for pair in ladder["pairs"]])
    trace = body["picard_trace"]
    if "intervals" in trace:
        return [["interval", "iteration", "dist", "ratio"]] + [
            [i, *row] for i, t in enumerate(trace["intervals"])
            for row in _trace_rows(t, ["distances"])]
    return ([["iteration", "dy", "dz", "dv", "dist", "ratio"]]
            + _trace_rows(trace, ["dy", "dz", "dv", "distances"]))


@pytest.mark.parametrize("command, overrides", [
    ("solve", {}),
    ("solve", {"subdivide": {"enabled": True, "c_emp": 1.18, "q": 1.5}}),
    ("verify", {}),
    ("ladder", {"ladder": {"n_list": [1, 2, 4]}}),
], ids=["solve", "subdivided-solve", "verify", "ladder"])
def test_csv_cells_are_the_body_values(tmp_path, command, overrides):
    path, _ = _cfg(
        tmp_path, grid_steps=8, node_cap=10 ** 7,
        problem={**copy.deepcopy(BASE["problem"]),
                 "generator": {"form": "zv-coupled",
                               "params": {"cz": 0.5, "cv": 0.5}},
                 "terminal": {"form": "brownian-functional",
                              "params": {"kind": "square"}}},
        **overrides)
    assert cli.main([command, "--config", str(path)]) == 0
    out = tmp_path / "out"
    body = _body(out / [f for f in os.listdir(out) if f.endswith(".json")][0])
    with open(out / [f for f in os.listdir(out) if f.endswith(".csv")][0],
              newline="") as fh:
        got = list(csv.reader(fh))
    want = _want_csv(command, body)
    if "subdivide" in overrides:
        assert len(body["picard_trace"]["intervals"]) == 2
    assert len(want) > 2
    assert got == [[_csv_text(value) for value in row] for row in want]


def test_ladder_command(tmp_path):
    path, _ = _cfg(
        tmp_path,
        problem={**copy.deepcopy(BASE["problem"]),
                 "generator": {"form": "affine", "params": {}},
                 "terminal": {"form": "brownian-functional",
                              "params": {"kind": "exp"}}},
        grid_steps=40,
        node_cap=None,
        ladder={"n_list": [1, 2, 4, 8, 16]},
    )
    assert cli.main(["ladder", "--config", str(path)]) == 0
    out = tmp_path / "out"
    body = _body(out / [f for f in os.listdir(out) if f.endswith(".json")][0])
    y0 = [lev["y0"] for lev in body["ladder"]["levels"]]
    assert all(b >= a for a, b in zip(y0, y0[1:]))


def test_every_ladder_rung_runs_at_the_configured_picard_q(tmp_path,
                                                            monkeypatch):
    from jumpbsde import solver
    seen, picard = [], solver._picard

    def spy(rep, problem, **kwargs):
        seen.append(kwargs.get("q"))
        return picard(rep, problem, **kwargs)

    monkeypatch.setattr(solver, "_picard", spy)
    path, _ = _cfg(tmp_path, grid_steps=6, picard={"q": 1.8},
                   ladder={"n_list": [1, 2, 4]})
    assert cli.main(["ladder", "--config", str(path)]) == 0
    assert seen == [1.8] * 3


def test_every_ladder_rung_runs_at_the_configured_picard_tol(tmp_path,
                                                              monkeypatch):
    # a looser picard.tol stops each rung's Picard run sooner; the default
    # config tol is the library's 1e-9
    from jumpbsde import solver
    picard = solver._picard

    def ladder_iterations(**picard_cfg):
        runs = []

        def spy(rep, problem, **kwargs):
            sol, trace = picard(rep, problem, **kwargs)
            runs.append((kwargs["tol"], trace.n_iter))
            return sol, trace

        monkeypatch.setattr(solver, "_picard", spy)
        path, _ = _cfg(
            tmp_path, grid_steps=6, picard=picard_cfg,
            ladder={"n_list": [1, 2, 4]},
            problem={**copy.deepcopy(BASE["problem"]),
                     "generator": {"form": "lipschitz-smooth", "params": {
                         "ay": 0.5, "bz": [0.25], "cv": 0.25}},
                     "terminal": {"form": "state-linear", "params": {
                         "brownian_weights": [1.0], "jump_weights": [0.5],
                         "compensated": True}}})
        assert cli.main(["ladder", "--config", str(path)]) == 0
        return runs

    default, loose = ladder_iterations(), ladder_iterations(tol=1e-2)
    assert [tol for tol, _ in default] == [1e-9] * 3
    assert [tol for tol, _ in loose] == [1e-2] * 3
    print(default, loose)
    assert all(a < b for (_, a), (_, b) in zip(loose, default))


def _growing_rung_ladder(tmp_path, **overrides):
    """f = -2 lambda v, xi = N_T on a 64-step lattice, rungs n = 8 and 16:
    the n = 8 rung's Picard ratios read >= 1 from sweep 4 to 6 while its
    distance stays far below the first, and it converges later. Runs
    ``ladder``; returns (exit code, the body's ladder)."""
    path, _ = _cfg(
        tmp_path,
        problem={**copy.deepcopy(BASE["problem"]),
                 "generator": {"form": "affine", "params": {"c": [-2.0]}},
                 "terminal": {"form": "jump-count", "params": {}}},
        grid_steps=64,
        node_cap=None,
        ladder={"n_list": [8, 16]},
        **overrides,
    )
    code = cli.main(["ladder", "--config", str(path)])
    out = tmp_path / "out"
    body = _body(out / [f for f in os.listdir(out) if f.endswith(".json")][0])
    return code, body["ladder"]


def test_a_ladder_with_a_stopped_rung_exits_2(tmp_path, capsys):
    # stopped at picard.max_iter 6, short of its fixed point, the n = 8
    # rung's pair distance is that rung's error, not the ladder's
    code, ladder = _growing_rung_ladder(tmp_path, picard={"max_iter": 6})
    assert code == cli.EXIT_DIVERGED
    err = capsys.readouterr().err
    assert "did not converge" in err and "subdivide" not in err
    assert [lev["converged"] for lev in ladder["levels"]] == [False, True]
    assert ladder["pairs"][0]["measured_d_norm"] <= ladder["tol"]
    assert ladder["cauchy"] is False


def test_a_ladder_whose_rung_grows_below_its_first_distance_is_cauchy(
        tmp_path):
    # at the default picard.max_iter the divergence rule lets the n = 8 rung
    # run on, and the pair distance is the rungs' own (3.3e-6)
    code, ladder = _growing_rung_ladder(tmp_path)
    assert code == cli.EXIT_OK
    assert [lev["converged"] for lev in ladder["levels"]] == [True, True]
    assert 1e-6 < ladder["pairs"][0]["measured_d_norm"] < 1e-5
    assert ladder["cauchy"] is True


def test_ladder_requires_increasing_n_list(tmp_path, capsys):
    path, _ = _cfg(tmp_path, ladder={"n_list": [4, 2, 1]})
    assert cli.main(["ladder", "--config", str(path)]) == 1
    assert "n_list" in capsys.readouterr().err


def test_seed_and_out_overrides(tmp_path):
    path, _ = _cfg(tmp_path, method="mc", grid_steps=6, n_paths=500)
    alt = tmp_path / "alt"
    code = cli.main(["solve", "--config", str(path), "--seed", "11",
                     "--out", str(alt)])
    assert code == 0
    body = _body(alt / [f for f in os.listdir(alt) if f.endswith(".json")][0])
    assert body["config"]["seed"] == 11


def _run_cli(cfg_path, out_dir, threads):
    env = {**os.environ, "OMP_NUM_THREADS": str(threads),
           "OPENBLAS_NUM_THREADS": str(threads),
           "MKL_NUM_THREADS": str(threads)}
    res = subprocess.run(
        [sys.executable, "-m", "jumpbsde.cli", "solve", "--config",
         str(cfg_path), "--out", str(out_dir)],
        capture_output=True, text=True, env=env)
    assert res.returncode == 0, res.stderr
    names = sorted(os.listdir(out_dir))
    payload = {}
    for n in names:
        with open(os.path.join(out_dir, n), "rb") as fh:
            payload[n] = fh.read()
    return names, payload


def test_reports_reproducible_across_thread_counts(tmp_path):
    # identical config + seed: byte-identical bodies and CSVs, independent of
    # the BLAS/OpenMP thread count (the timestamp lives in the header only)
    path, _ = _cfg(tmp_path, method="mc", grid_steps=8, n_paths=2000,
                   out_dir=None)
    names1, pay1 = _run_cli(path, tmp_path / "r1", threads=1)
    names2, pay2 = _run_cli(path, tmp_path / "r2", threads=4)
    assert names1 == names2
    for n in names1:
        if n.endswith(".json"):
            b1 = json.dumps(json.loads(pay1[n])["body"], sort_keys=True)
            b2 = json.dumps(json.loads(pay2[n])["body"], sort_keys=True)
            assert b1.encode() == b2.encode()
        else:
            assert pay1[n] == pay2[n]


# runs (command, config) pairs in one process and prints, as its last line,
# whether scipy was loaded and how many threads were alive after the import
# and after each run, how many threads each run started, and the ranges
# rng._ranges gives the Monte Carlo run's draw on this host
_SCIPY_PROBE = """
import json, sys, threading
from jumpbsde import cli, rng
loaded, alive, starts = ["scipy" in sys.modules], [threading.active_count()], []
start = threading.Thread.start

def counted(thread):
    starts[-1] += 1
    start(thread)

threading.Thread.start = counted
for command, path in zip(sys.argv[1::2], sys.argv[2::2]):
    starts.append(0)
    assert cli.main([command, "--config", path]) == 0
    loaded.append("scipy" in sys.modules)
    alive.append(threading.active_count())
print(json.dumps({"scipy": loaded, "alive": alive, "starts": starts,
                  "mc_ranges": rng._ranges(4 * 33_000)}))
"""


def test_only_monte_carlo_runs_load_scipy(tmp_path):
    # the tree and the lattice draw no normal variate, so they never import
    # scipy's inverse normal CDF nor start a thread; a path batch loads it on
    # its first draw, and its 4 * 33 000 variates are drawn on one range per
    # core (at most 2); every command returns with only the main thread
    runs = [("verify", _cfg(tmp_path, "tree.json", grid_steps=4)[0]),
            ("solve", _cfg(tmp_path, "lattice.json", node_cap=None)[0]),
            ("solve", _cfg(tmp_path, "mc.json", method="mc", grid_steps=4,
                           n_paths=33_000)[0])]
    src = pathlib.Path(cli.__file__).resolve().parents[1]
    res = subprocess.run(
        [sys.executable, "-c", _SCIPY_PROBE]
        + [str(arg) for run in runs for arg in run],
        capture_output=True, text=True, cwd=tmp_path,
        env={**os.environ, "PYTHONPATH": str(src)})
    assert res.returncode == 0, res.stderr
    probe = json.loads(res.stdout.splitlines()[-1])
    assert probe["scipy"] == [False, False, False, True]
    assert probe["alive"] == [1, 1, 1, 1]
    assert probe["starts"] == [0, 0, probe["mc_ranges"] - 1]
    assert 1 <= probe["mc_ranges"] <= 2


def test_config_round_trip(tmp_path, monkeypatch):
    # the emitted report embeds the resolved config; re-running from it
    # reproduces the body byte for byte (the embedded config has no out_dir,
    # so the re-run writes where JUMPBSDE_OUT points)
    monkeypatch.setenv("JUMPBSDE_OUT", str(tmp_path / "rerun"))
    path, _ = _cfg(tmp_path, grid_steps=8)
    assert cli.main(["solve", "--config", str(path)]) == 0
    out = tmp_path / "out"
    report = out / [f for f in os.listdir(out) if f.endswith(".json")][0]
    body1 = _body(report)
    embedded = tmp_path / "embedded.json"
    embedded.write_text(json.dumps(body1["config"]))
    code, body2, _ = cli.cmd_solve(cli.load_config(str(embedded)))
    assert code == 0
    assert (json.dumps(body1, sort_keys=True)
            == json.dumps(body2, sort_keys=True))


@pytest.mark.parametrize("command, overrides", [
    ("solve", {}), ("verify", {"grid_steps": 4}),
    ("ladder", {"ladder": {"n_list": [1, 2]}})])
def test_header_profile_has_phase_times_and_peak_rss(tmp_path, command,
                                                     overrides):
    # the profile sits in the header: two runs of one config write the same
    # body bytes, and each header carries the four phase times and the RSS
    docs = []
    for run in ("a", "b"):
        path, _ = _cfg(tmp_path, name=f"{run}.json",
                       out_dir=str(tmp_path / run), **overrides)
        assert cli.main([command, "--config", str(path)]) == 0
        out = tmp_path / run
        name = [f for f in os.listdir(out) if f.endswith(".json")][0]
        with open(out / name) as fh:
            docs.append(json.load(fh))
    a, b = docs
    assert (json.dumps(a["body"], sort_keys=True)
            == json.dumps(b["body"], sort_keys=True))
    assert "profile" not in json.dumps(a["body"])
    for doc in docs:
        profile = doc["header"]["profile"]
        assert set(profile) == {"phases_s", "ru_maxrss_mb"}
        assert set(profile["phases_s"]) == {"setup", "solve", "norms",
                                            "report"}
        assert all(t >= 0.0 for t in profile["phases_s"].values())
        assert profile["phases_s"]["solve"] > 0.0
        assert profile["ru_maxrss_mb"] > 0.0
