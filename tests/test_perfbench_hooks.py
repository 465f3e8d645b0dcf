"""The benchmark's child process hooks the package by name.

``perfbench/child.py traced`` wraps every public callable of the package,
and ``perfbench/layers.py`` raises "hooked callables not found" unless each
one it hooks exists. Its hooks read the driver's ``y`` argument, the Picard
trace's ``n_iter``, the size of ``rng.uniform``'s draws, the file each
report writer returns, the ``ProcessSample`` argument of the norm kernels
``norms.sp_norm``, ``mp_norm`` and ``class_d_norm`` (``NORM_KERNELS``), and
``levels[k].codes.size`` of the tree ``build_scenario_tree`` returns. A
change to any of these names (``_Level.codes`` included) has to keep that
contract, so the traced child is run here end to end on a small lattice.

``perfbench/child.py full`` ends each set-up sample at the first call of
``cli.build_scenario_tree`` or ``cli.simulate_paths``, and raises "the run
built no scenario tree or path batch" if cli calls neither under that name;
it is run here on a small lattice solve and a small Monte Carlo solve.
"""

import json
import os
import pathlib
import subprocess
import sys

import pytest

import jumpbsde as jb

ROOT = pathlib.Path(__file__).resolve().parents[1]
PROBLEM = {
    "horizon": 1.0,
    "dim": 1,
    "marks": {"marks": [[1.0]], "intensities": [1.0]},
    "generator": {"form": "lipschitz-smooth",
                  "params": {"ay": 0.5, "bz": [0.25], "cv": 0.25}},
    "terminal": {"form": "state-linear",
                 "params": {"brownian_weights": [1.0],
                            "jump_weights": [0.5], "compensated": True}},
}


def _run_child(tmp_path, mode, run):
    """``perfbench/child.py MODE`` on a solve of PROBLEM with the settings
    ``run``; returns its result record."""
    config = tmp_path / "run.json"
    config.write_text(json.dumps({
        "schema": "jumpbsde/run-config/v1", "problem": PROBLEM, **run}))
    result = tmp_path / "result.json"
    src = os.path.dirname(os.path.dirname(jb.__file__))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "child.py"), mode, src,
         "solve", str(config), str(tmp_path / "out"), str(result)],
        capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return json.loads(result.read_text())


def test_traced_child_counts_every_lattice_state(tmp_path):
    layers = _run_child(tmp_path, "traced", {
        "method": "tree", "grid_steps": 12, "node_cap": None})["layers"]

    tree = jb.build_scenario_tree(jb.make_time_grid(1.0, 12),
                                  jb.make_mark_space([[1.0]], [1.0]), 1,
                                  node_cap=None)
    states = sum(tree.n_states(k) for k in range(13))
    assert layers["randomness.lattice_states"] == [states, "count"]


@pytest.mark.parametrize("run", [
    {"method": "tree", "grid_steps": 12, "node_cap": None},
    {"method": "mc", "grid_steps": 6, "n_paths": 200},
], ids=["lattice", "mc"])
def test_full_child_samples_setup_at_the_cli_constructors(tmp_path, run):
    result = _run_child(tmp_path, "full", run)
    assert len(result["setup_samples"]) >= 3
    assert result["observed"]["exit_code"] == 0
