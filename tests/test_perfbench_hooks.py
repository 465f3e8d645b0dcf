"""The benchmark's traced mode reads the lattice the package builds.

``perfbench/child.py traced`` wraps every public callable of the package and
counts lattice states with a hook on ``build_scenario_tree`` that reads
``levels[k].codes.size``. A change to the lattice's layout has to keep that
contract, so it is run here end to end on a small lattice.
"""

import json
import os
import pathlib
import subprocess
import sys

import jumpbsde as jb

ROOT = pathlib.Path(__file__).resolve().parents[1]


def test_traced_child_counts_every_lattice_state(tmp_path):
    problem = {
        "horizon": 1.0,
        "dim": 1,
        "marks": {"marks": [[1.0]], "intensities": [1.0]},
        "generator": {"form": "lipschitz-smooth",
                      "params": {"ay": 0.5, "bz": [0.25], "cv": 0.25}},
        "terminal": {"form": "state-linear",
                     "params": {"brownian_weights": [1.0],
                                "jump_weights": [0.5], "compensated": True}},
    }
    config = tmp_path / "lattice.json"
    config.write_text(json.dumps({
        "schema": "jumpbsde/run-config/v1", "problem": problem,
        "method": "tree", "grid_steps": 12, "node_cap": None}))
    result = tmp_path / "result.json"
    src = os.path.dirname(os.path.dirname(jb.__file__))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "child.py"), "traced", src,
         "solve", str(config), str(tmp_path / "out"), str(result)],
        capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    layers = json.loads(result.read_text())["layers"]

    tree = jb.build_scenario_tree(jb.make_time_grid(1.0, 12),
                                  jb.make_mark_space([[1.0]], [1.0]), 1,
                                  node_cap=None)
    states = sum(tree.n_states(k) for k in range(13))
    assert layers["randomness.lattice_states"] == [states, "count"]
