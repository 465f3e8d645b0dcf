"""The tree-verify benchmark workload reproduces its recorded report body.

``perfbench/run.py`` gates every run on the observables recorded in
``perfbench/references.json``, the body hash among them. Running the
tree-verify workload here, in-process through ``cli.main``, makes a bit
change in any number of its body fail the ordinary test suite as well.
Only ``perfbench/`` is read.
"""

import json
import pathlib
import sys

from jumpbsde import cli

PERFBENCH = pathlib.Path(__file__).resolve().parents[1] / "perfbench"
sys.path.insert(0, str(PERFBENCH))

import gate  # noqa: E402
import workloads  # noqa: E402


def test_tree_verify_body_matches_the_benchmark_reference(tmp_path, capsys):
    command, cfg = workloads.make_run("tree-verify", 0)
    config = tmp_path / "config.json"
    config.write_text(json.dumps(cfg))
    code = cli.main([command, "--config", str(config), "--out",
                     str(tmp_path)])
    report = next(line for line in capsys.readouterr().out.splitlines()
                  if line.endswith(".json"))
    body = json.loads(pathlib.Path(report).read_text())["body"]
    references = json.loads((PERFBENCH / "references.json").read_text())
    reference = references["tree-verify"][workloads.reference_key(
        "tree-verify", 0)]
    assert gate.check(gate.observe(code, body), reference) == []
