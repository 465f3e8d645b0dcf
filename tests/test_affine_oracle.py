"""The lattice against closed-form continuous-time solutions of the
``affine`` driver.

For f = a y + b z + c lambda v with d = m = 1, a = 0.5, b = 0.3, c = 0.4
and lambda = T = 1, ``reference.affine_state_linear`` (xi = B_T +
0.7 (N_T - lambda T)) and ``reference.affine_exp_brownian`` (xi = exp(B_T))
give (Y, Z, V) at every (t, B_t, N_t). The implicit lattice's y0, Z_0 and
V_0 are first order in dt: halving dt halves each error, to a ratio in
[1.9, 2.05]. With exp(B_T) the solution ignores the jumps, and the
lattice's V_0 is exactly 0.
"""

import functools

import numpy as np
import pytest

import jumpbsde as jb
from reference import affine_exp_brownian, affine_state_linear

A, B, C, LAM, T = 0.5, 0.3, 0.4, 1.0, 1.0
STEPS = (25, 50, 100)
ORIGIN = (0.0, np.zeros(1), np.zeros(1))       # (t, B_t, N_t) at the root
DATA = dict(T=T, a=A, b=np.array([B]), c=np.array([C]), lam=np.array([LAM]))

TERMINALS = {
    "state-linear": (
        {"brownian_weights": [1.0], "jump_weights": [0.7],
         "compensated": True},
        affine_state_linear(*ORIGIN, **DATA, w=np.ones(1),
                            u=np.array([0.7]))),
    "brownian-functional": (
        {"kind": "exp"}, affine_exp_brownian(*ORIGIN, **DATA, w=np.ones(1))),
}


@functools.lru_cache(maxsize=None)
def _lattice_root(form, N):
    """(y0, Z_0, V_0) of the lattice solve at N steps."""
    marks = jb.make_mark_space([[1.0]], [LAM])
    gen = jb.make_generator("affine", {"a": A, "b": [B], "c": [C]},
                            marks=marks, d=1)
    term = jb.make_terminal(form, TERMINALS[form][0], marks=marks, d=1)
    problem = jb.make_problem(T, N, 1, marks, gen, term)
    tree = jb.build_scenario_tree(problem.grid, marks, 1, node_cap=None)
    sol = jb.solve_tree(problem, tree)
    return sol.y0, sol.z[0][0, 0], sol.v[0][0, 0]


def _errors(form, field):
    exact = TERMINALS[form][1]
    want = float(np.ravel(exact[field])[0])
    return [_lattice_root(form, N)[field] - want for N in STEPS]


@pytest.mark.parametrize("form, field", [
    ("state-linear", 0), ("state-linear", 1), ("state-linear", 2),
    ("brownian-functional", 0), ("brownian-functional", 1)],
    ids=["linear-y0", "linear-z0", "linear-v0", "exp-y0", "exp-z0"])
def test_root_errors_are_first_order_in_dt(form, field):
    errors = _errors(form, field)
    ratios = [e / e_half for e, e_half in zip(errors, errors[1:])]
    assert all(1.9 <= r <= 2.05 for r in ratios), (errors, ratios)


def test_exp_terminal_has_no_jump_part():
    assert TERMINALS["brownian-functional"][1][2].tolist() == [0.0]
    assert [_lattice_root("brownian-functional", N)[2] for N in STEPS] == [
        0.0] * len(STEPS)
