"""On a grid the Picard iterate equals the direct backward solve after at
most K + 1 sweeps over K steps.

Sweep s freezes each step's (Z_k, V_k) from sweep s - 1, and those are the
projections of sweep s - 1's Y_{k+1}. The terminal is exact, so each sweep
fixes at least one more depth for good: after K + 1 sweeps every (Y, Z, V)
level is the direct solve's, and sweep K + 2 measures a zero distance.
Whatever the contraction, ``_picard`` with ``tol=0`` and ``max_iter`` K + 2
converges, and its levels equal the direct ``_backward``'s bit for bit, on
the lattice, the explicit tree and a path batch, over the whole grid, over
a sub-range with k_lo > 0, and interval by interval in a chained solve.
The drivers' kappa stays small enough that the distances shrink, since the
divergence rule (three ratios >= 1) would stop a growing iteration first.
"""

import numpy as np
import pytest

import jumpbsde as jb
from jumpbsde import solver
from jumpbsde.solver import _setup
from test_meter import INIT
from test_picard_sweep import _assert_same_solution

REPS = {"lattice": ("tree", None), "tree": ("tree", 10 ** 7),
        "batch": ("mc", None)}

FORMS = {
    "zv-coupled": lambda d, m: {"cy": 0.5, "cz": 1.0, "cv": 1.0},
    "lipschitz-smooth": lambda d, m: {"ay": 0.5, "bz": [0.5] * d, "cv": 0.5},
    "affine": lambda d, m: {"a": 0.5, "const": 0.25, "b": [0.5] * d,
                            "c": [-0.5] * m},
}


def _problem(form, d, m, N):
    marks = jb.make_mark_space([[1.0 + i] for i in range(m)],
                               [0.7 + 0.6 * i for i in range(m)])
    gen = jb.make_generator(form, FORMS[form](d, m), marks=marks, d=d)
    term = jb.make_terminal("state-linear",
                            {"brownian_weights": [1.0] * d,
                             "jump_weights": [0.5] * m, "compensated": True},
                            marks=marks, d=d)
    return jb.make_problem(1.0, N, d, marks, gen, term)


def _steps(rep_name, d, m, n_max=10):
    """N <= n_max, and on the explicit tree as many as keep 4^6 leaves."""
    if rep_name != "tree":
        return n_max
    N = 1
    while N < n_max and (2 ** d * (m + 1)) ** (N + 1) <= 4 ** 6:
        N += 1
    return N


def _rep(rep_name, problem):
    method, node_cap = REPS[rep_name]
    return _setup(problem, method, node_cap=node_cap, n_paths=300, seed=7)


def _exact_picard(rep, problem, k_lo, k_hi, terminal_values):
    sol, trace = solver._picard(rep, problem, tol=0.0,
                                max_iter=k_hi - k_lo + 2, init=INIT,
                                k_lo=k_lo, k_hi=k_hi,
                                terminal_values=terminal_values)
    assert trace.converged and trace.dist[-1] == 0.0
    return sol


@pytest.mark.parametrize("d, m", [(1, 1), (1, 2), (2, 1), (2, 2)])
@pytest.mark.parametrize("form", sorted(FORMS))
@pytest.mark.parametrize("rep_name", sorted(REPS))
def test_picard_reaches_the_direct_solve(rep_name, form, d, m):
    problem = _problem(form, d, m, _steps(rep_name, d, m))
    rep = _rep(rep_name, problem)
    N = problem.grid.steps
    _assert_same_solution(_exact_picard(rep, problem, 0, N, None),
                          solver._solve(rep, problem))


@pytest.mark.parametrize("form", sorted(FORMS))
@pytest.mark.parametrize("rep_name", sorted(REPS))
def test_sub_range_picard_reaches_the_direct_solve(rep_name, form):
    problem = _problem(form, 2, 1, _steps(rep_name, 2, 1, 8))
    rep = _rep(rep_name, problem)
    k_lo, k_hi = 2, problem.grid.steps - 1
    terminal = solver._solve(rep, problem).y[k_hi]
    _assert_same_solution(
        _exact_picard(rep, problem, k_lo, k_hi, terminal),
        solver._backward(rep, problem, k_lo, k_hi, terminal))


@pytest.mark.parametrize("rep_name", sorted(REPS))
def test_chained_picard_reaches_the_direct_solve(rep_name):
    problem = _problem("zv-coupled", 1, 1, 9 if rep_name != "tree" else 6)
    rep = _rep(rep_name, problem)
    plan = jb.SubdivisionPlan(np.linspace(0.0, 1.0, 4), 1.5, 0.5, 1.0, 0.5,
                              0.0)
    step = problem.grid.steps // 3
    sol, traces = jb.chained_solve(problem, plan, REPS[rep_name][0],
                                   tree=rep.tree, batch=rep.batch, tol=0.0,
                                   max_iter=step + 2, init=INIT,
                                   check_assumptions=False)
    assert all(t.converged and t.dist[-1] == 0.0 for t in traces)
    _assert_same_solution(sol, solver._solve(rep, problem))
