"""The benchmark's traced mode hooks the package by name.

``perfbench/child.py traced`` wraps every public callable of the package,
and ``perfbench/layers.py`` raises "hooked callables not found" unless each
one it hooks exists. Its hooks read the driver's ``y`` argument, the Picard
trace's ``n_iter``, the size of ``rng.uniform``'s draws, the file each
report writer returns, the ``ProcessSample`` argument of the norm kernels
``norms.sp_norm``, ``mp_norm`` and ``class_d_norm`` (``NORM_KERNELS``), and
``levels[k].codes.size`` of the tree ``build_scenario_tree`` returns. A
change to any of these names (``_Level.codes`` included) has to keep that
contract, so the traced child is run here end to end on a small lattice.
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
