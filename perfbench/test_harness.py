"""Self-checks of the benchmark harness: the gate and the tracer.

    python3 -m pytest -q perfbench/test_harness.py
"""

import math
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import gate  # noqa: E402
from tracer import Tracer  # noqa: E402


def _solve_body(y0):
    return {"schema": "jumpbsde/report/v1", "command": "solve", "y0": y0,
            "norms": [{"norm": "sp", "value": 0.75}], "converged": True}


def test_gate_flags_one_ulp_change_in_y0():
    y0 = 0.5184487391762942
    reference = gate.observe(0, _solve_body(y0))
    assert gate.check(gate.observe(0, _solve_body(y0)), reference) == []

    perturbed = math.nextafter(y0, math.inf)
    problems = gate.check(gate.observe(0, _solve_body(perturbed)), reference)
    flagged = {p.split(":", 1)[0] for p in problems}
    assert flagged == {"y0", "body_sha256"}


def test_gate_flags_missing_reference_and_exit_code():
    observed = gate.observe(0, _solve_body(0.5))
    assert gate.check(observed, None)
    assert gate.check(gate.observe(3, _solve_body(0.5)), observed) == [
        "exit_code: expected 0, got 3"]


class _TickClock:
    """Deterministic clock: each reading advances by one unit."""

    def __init__(self):
        self.now = 0.0

    def __call__(self):
        self.now += 1.0
        return self.now


def _toy(tracer):
    leaf = tracer.wrap(lambda: None, "toy.leaf")
    mid = tracer.wrap(lambda: (leaf(), leaf()), "toy.mid")
    return tracer.wrap(lambda: (mid(), leaf(), mid()), "toy.root")


def test_tracer_self_times_sum_to_root_span():
    tracer = Tracer(clock=_TickClock())
    _toy(tracer)()
    root = tracer.names.index("toy.root")
    own = tracer.self_times()
    wall = tracer.end[root] - tracer.start[root]
    assert sum(own) == wall
    assert all(t >= 0 for t in own)
    # each span reads the clock once on entry and once on exit
    assert wall == 2 * len(tracer) - 1
    assert tracer.names.count("toy.leaf") == 5
    assert [tracer.names[i] for i in tracer.parent if i >= 0].count("toy.mid") == 4


def test_tracer_outermost_counts_recursion_once():
    tracer = Tracer(clock=_TickClock())

    def fact(n):
        return 1 if n <= 1 else n * traced(n - 1)

    traced = tracer.wrap(fact, "toy.fact")
    assert traced(4) == 24
    assert tracer.outermost(["toy.fact"]) == [0]
    assert len(tracer) == 4


def test_tracer_self_times_with_real_clock():
    tracer = Tracer()
    _toy(tracer)()
    wall = tracer.end[0] - tracer.start[0]
    assert math.isclose(sum(tracer.self_times()), wall, rel_tol=1e-9,
                        abs_tol=1e-12)
