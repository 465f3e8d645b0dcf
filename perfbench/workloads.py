"""Workload generator: one jumpbsde run config per (workload name, seed).

The program receives only the config written here; the benchmark's
``--seed`` picks the inputs. The two tree workloads are exact lattice
computations with no randomness, so their config is the same for every
seed. The two Monte Carlo workloads map ``--seed`` onto one of
``len(BENCH_SEEDS)`` config seeds whose reference outputs are recorded in
``references.json``; ``HELD_OUT_SEED`` is recorded too but never used while
tuning, so a later speed claim can be re-checked on inputs it was not
written against.
"""

import copy

SCHEMA = "jumpbsde/run-config/v1"

# the ROADMAP baseline problem shared by every workload
BASE_PROBLEM = {
    "horizon": 1.0,
    "dim": 1,
    "marks": {"marks": [[1.0]], "intensities": [1.0]},
    "generator": {"form": "lipschitz-smooth",
                  "params": {"ay": 0.5, "bz": [0.25], "cv": 0.25},
                  "p": 2.0},
    "terminal": {"form": "state-linear",
                 "params": {"brownian_weights": [1.0],
                            "jump_weights": [0.5],
                            "compensated": True}},
}

BENCH_SEEDS = tuple(range(16))
HELD_OUT_SEED = 4242

# name -> (CLI command, config overrides, seeded); why each was chosen is
# recorded in BENCHMARK.json and README.md
WORKLOADS = {
    "tree-verify": (
        "verify",
        {"method": "tree", "grid_steps": 9},
        False),
    "lattice-solve": (
        "solve",
        {"method": "tree", "grid_steps": 150, "node_cap": None},
        False),
    "mc-solve": (
        "solve",
        {"method": "mc", "grid_steps": 50, "n_paths": 20000,
         "basis_degree": 2},
        True),
    "mc-ladder": (
        "ladder",
        {"method": "mc", "grid_steps": 20, "n_paths": 10000,
         "problem": {"terminal": {"form": "brownian-functional",
                                  "params": {"kind": "exp"}}},
         "ladder": {"n_list": [1, 4, 16]}},
        True),
}


def config_seed(name, seed, held_out=False):
    """The config seed a benchmark seed maps to (None if seed-invariant)."""
    if not WORKLOADS[name][2]:
        return None
    if held_out:
        return HELD_OUT_SEED
    return BENCH_SEEDS[seed % len(BENCH_SEEDS)]


def make_run(name, seed, held_out=False):
    """(CLI command, config dict) for one workload run."""
    if name not in WORKLOADS:
        raise KeyError(f"unknown workload {name!r}; known: {sorted(WORKLOADS)}")
    command, over, _ = WORKLOADS[name]
    over = copy.deepcopy(over)
    # a workload's problem entries replace the shared ones whole
    problem = {**copy.deepcopy(BASE_PROBLEM), **over.pop("problem", {})}
    cfg = {"schema": SCHEMA, "problem": problem, **over}
    cseed = config_seed(name, seed, held_out)
    if cseed is not None:
        cfg["seed"] = cseed
    return command, cfg


def reference_key(name, seed, held_out=False):
    """Key of the workload's entry in references.json."""
    cseed = config_seed(name, seed, held_out)
    return "*" if cseed is None else str(cseed)
