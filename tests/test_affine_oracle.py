"""The lattice against closed-form continuous-time solutions of the
``affine`` driver.

For f = a y + b z + c lambda v with d = m = 1, a = 0.5, b = 0.3 and
lambda = T = 1, ``reference.affine_state_linear`` (xi = B_T +
0.7 (N_T - lambda T)), ``reference.affine_exp_brownian`` (xi = exp(B_T)),
both at c = 0.4, and ``reference.affine_jump_count`` (xi = 0.7 N_T), at
c = 0.4 and at c = -2, below -1, give (Y, Z, V) at every (t, B_t, N_t).
The implicit lattice's y0, Z_0 and V_0 are first order in dt: halving dt
halves each error, to a ratio in [1.9, 2.05]. With exp(B_T) the solution
ignores the jumps, and the lattice's V_0 is exactly 0; with 0.7 N_T it
ignores the Brownian motion, and the lattice's Z_0 is exactly 0.
"""

import functools

import numpy as np
import pytest

import jumpbsde as jb
from reference import (affine_exp_brownian, affine_jump_count,
                       affine_state_linear)

A, B, LAM, T = 0.5, 0.3, 1.0, 1.0
STEPS = (25, 50, 100)
ORIGIN = (0.0, np.zeros(1), np.zeros(1))       # (t, B_t, N_t) at the root


def _data(c):
    return dict(T=T, a=A, b=np.array([B]), c=np.array([c]),
                lam=np.array([LAM]))


# name -> (terminal form, its params, c, the exact (Y_0, Z_0, V_0))
CASES = {
    "linear": (
        "state-linear", {"brownian_weights": [1.0], "jump_weights": [0.7],
                         "compensated": True}, 0.4,
        affine_state_linear(*ORIGIN, **_data(0.4), w=np.ones(1),
                            u=np.array([0.7]))),
    "exp": (
        "brownian-functional", {"kind": "exp"}, 0.4,
        affine_exp_brownian(*ORIGIN, **_data(0.4), w=np.ones(1))),
    "count": (
        "jump-count", {"weights": [0.7]}, 0.4,
        affine_jump_count(*ORIGIN, **_data(0.4), u=np.array([0.7]))),
    "count-c-2": (
        "jump-count", {"weights": [0.7]}, -2.0,
        affine_jump_count(*ORIGIN, **_data(-2.0), u=np.array([0.7]))),
}


@functools.lru_cache(maxsize=None)
def _lattice_root(case, N):
    """(y0, Z_0, V_0) of the lattice solve at N steps."""
    form, params, c, _ = CASES[case]
    marks = jb.make_mark_space([[1.0]], [LAM])
    gen = jb.make_generator("affine", {"a": A, "b": [B], "c": [c]},
                            marks=marks, d=1)
    term = jb.make_terminal(form, params, marks=marks, d=1)
    problem = jb.make_problem(T, N, 1, marks, gen, term)
    tree = jb.build_scenario_tree(problem.grid, marks, 1, node_cap=None)
    sol = jb.solve_tree(problem, tree)
    return sol.y0, sol.z[0][0, 0], sol.v[0][0, 0]


def _errors(case, field):
    want = float(np.ravel(CASES[case][3][field])[0])
    return [_lattice_root(case, N)[field] - want for N in STEPS]


@pytest.mark.parametrize("case, field", [
    ("linear", 0), ("linear", 1), ("linear", 2), ("exp", 0), ("exp", 1),
    ("count", 0), ("count", 2), ("count-c-2", 0), ("count-c-2", 2)],
    ids=["linear-y0", "linear-z0", "linear-v0", "exp-y0", "exp-z0",
         "count-y0", "count-v0", "count-c-2-y0", "count-c-2-v0"])
def test_root_errors_are_first_order_in_dt(case, field):
    errors = _errors(case, field)
    ratios = [e / e_half for e, e_half in zip(errors, errors[1:])]
    assert all(1.9 <= r <= 2.05 for r in ratios), (errors, ratios)


def test_exp_terminal_has_no_jump_part():
    assert CASES["exp"][3][2].tolist() == [0.0]
    assert [_lattice_root("exp", N)[2] for N in STEPS] == [0.0] * len(STEPS)


@pytest.mark.parametrize("case", ["count", "count-c-2"])
def test_jump_count_terminal_has_no_brownian_part(case):
    assert CASES[case][3][1].tolist() == [0.0]
    assert [_lattice_root(case, N)[1] for N in STEPS] == [0.0] * len(STEPS)
