"""Benchmark workloads reproduce their recorded report bodies.

``perfbench/run.py`` gates every run on the observables recorded in
``perfbench/references.json``, the body hash among them. Running every
workload here, the seeded ones at seed 0 and at the held-out config seed
4242, in-process through ``cli.main`` -- tree-verify (explicit-tree path
functionals), lattice-solve (the implicit lattice), mc-solve (the
regression solver) and mc-ladder (the path batch's class-D distances) --
makes a bit change in any number of their bodies, each assembled by the
report writer of one command, fail the ordinary test suite as well. Only
``perfbench/`` is read.
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


CASES = [("tree-verify", False), ("lattice-solve", False),
         ("mc-solve", False), ("mc-ladder", False),
         ("mc-solve", True), ("mc-ladder", True)]


@pytest.mark.parametrize("workload, held_out", CASES,
                         ids=[name + "-held-out" * held_out
                              for name, held_out in CASES])
def test_body_matches_the_benchmark_reference(tmp_path, capsys, workload,
                                              held_out):
    command, cfg = workloads.make_run(workload, 0, held_out=held_out)
    config = tmp_path / "config.json"
    config.write_text(json.dumps(cfg))
    code = cli.main([command, "--config", str(config), "--out",
                     str(tmp_path)])
    report = next(line for line in capsys.readouterr().out.splitlines()
                  if line.endswith(".json"))
    body = json.loads(pathlib.Path(report).read_text())["body"]
    references = json.loads((PERFBENCH / "references.json").read_text())
    reference = references[workload][workloads.reference_key(
        workload, 0, held_out=held_out)]
    assert gate.check(gate.observe(code, body), reference) == []
