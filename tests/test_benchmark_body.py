"""Benchmark workloads reproduce their recorded report bodies.

``perfbench/run.py`` gates every run on the observables recorded in
``perfbench/references.json``, the body hash among them. Running the
tree-verify workload (explicit-tree path functionals) and the mc-ladder
workload at seed 0 (the path batch's class-D distances) here, in-process
through ``cli.main``, makes a bit change in any number of their bodies fail
the ordinary test suite as well. Only ``perfbench/`` is read.
"""

import json
import pathlib
import sys

import pytest

from jumpbsde import cli

PERFBENCH = pathlib.Path(__file__).resolve().parents[1] / "perfbench"
sys.path.insert(0, str(PERFBENCH))

import gate  # noqa: E402
import workloads  # noqa: E402


@pytest.mark.parametrize("workload", ["tree-verify", "mc-ladder"])
def test_body_matches_the_benchmark_reference(tmp_path, capsys, workload):
    command, cfg = workloads.make_run(workload, 0)
    config = tmp_path / "config.json"
    config.write_text(json.dumps(cfg))
    code = cli.main([command, "--config", str(config), "--out",
                     str(tmp_path)])
    report = next(line for line in capsys.readouterr().out.splitlines()
                  if line.endswith(".json"))
    body = json.loads(pathlib.Path(report).read_text())["body"]
    references = json.loads((PERFBENCH / "references.json").read_text())
    reference = references[workload][workloads.reference_key(workload, 0)]
    assert gate.check(gate.observe(code, body), reference) == []
