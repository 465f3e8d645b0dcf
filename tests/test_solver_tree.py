"""Exact backward induction on the scenario tree (the oracle solver)."""

import dataclasses
import math

import numpy as np
import pytest

import jumpbsde as jb
from jumpbsde.errors import StepSizeError


def _problem(gen_form, gen_params, term_form, term_params, T=1.0, N=8,
             lam=1.0, kappa=None):
    marks = jb.make_mark_space([[1.0]], [lam])
    gen = jb.make_generator(gen_form, gen_params, marks=marks, d=1, kappa=kappa)
    term = jb.make_terminal(term_form, term_params, marks=marks, d=1)
    return jb.make_problem(T, N, 1, marks, gen, term)


def test_constant_terminal_exact():
    prob = _problem("affine", {}, "constant", {"value": 2.0})
    tree = jb.build_scenario_tree(prob.grid, prob.marks, 1)
    sol = jb.solve_tree(prob, tree)
    assert all(np.all(lv == 2.0) for lv in sol.y_levels)
    assert all(np.all(lv == 0.0) for lv in sol.z_levels)
    assert all(np.all(lv == 0.0) for lv in sol.v_levels)


def test_brownian_terminal_martingale_representation():
    prob = _problem("affine", {}, "brownian-functional", {"kind": "linear"})
    tree = jb.build_scenario_tree(prob.grid, prob.marks, 1)
    sol = jb.solve_tree(prob, tree)
    for k in range(prob.grid.steps + 1):
        assert np.allclose(sol.y_levels[k], tree.brownian_values(k)[:, 0],
                           atol=1e-13)
    assert max(float(np.max(np.abs(lv - 1.0))) for lv in sol.z_levels) < 1e-12
    assert all(np.all(lv == 0.0) for lv in sol.v_levels)  # bitwise zero


def test_ode_oracle_and_first_order_convergence():
    # f(y) = 0.5 y, xi = 1: Y_t = e^{0.5(T-t)}; implicit Euler error ~ dt/8
    exact = math.exp(0.5)
    errs = {}
    for N in (100, 200):
        prob = _problem("affine", {"a": 0.5}, "constant", {"value": 1.0}, N=N)
        tree = jb.build_scenario_tree(prob.grid, prob.marks, 1, node_cap=None)
        sol = jb.solve_tree(prob, tree)
        errs[N] = abs(sol.y0 - exact)
    assert errs[100] / exact < 0.01
    assert 1.7 <= errs[100] / errs[200] <= 2.3


def test_compensated_count_terminal():
    # f = 0, xi = N_T - Lambda T: V = 1 (fp), Z = 0 bitwise, |Y0| = one-jump
    # lumping bias, first order in dt
    y0s = {}
    for N in (8, 16):
        prob = _problem("affine", {}, "jump-count", {"compensated": True},
                        N=N, lam=2.0)
        tree = jb.build_scenario_tree(prob.grid, prob.marks, 1, node_cap=None)
        sol = jb.solve_tree(prob, tree)
        assert max(float(np.max(np.abs(lv - 1.0))) for lv in sol.v_levels) < 1e-12
        assert all(np.all(lv == 0.0) for lv in sol.z_levels)
        y0s[N] = abs(sol.y0)
    assert 1.7 <= y0s[8] / y0s[16] <= 2.3


def test_tower_property_small_trees():
    # f = 0: Y at each lattice node equals the conditional expectation of xi
    # over descendant leaves, checked against direct summation
    for N in (1, 2, 3):
        prob = _problem("affine", {}, "state-linear",
                        {"brownian_weights": [1.0], "jump_weights": [0.7],
                         "compensated": True}, N=N)
        tree = jb.build_scenario_tree(prob.grid, prob.marks, 1)
        sol = jb.solve_tree(prob, tree)
        ids, idx, probs = tree.enumerate_paths()
        xi = sol.y_levels[-1][idx[:, -1]]
        for k in range(N + 1):
            # group paths by their lattice state at depth k
            for s in range(tree.n_states(k)):
                sel = idx[:, k] == s
                cond = float(np.dot(probs[sel], xi[sel]) / probs[sel].sum())
                assert abs(cond - sol.y_levels[k][s]) < 1e-13


def test_linearity_bit_exact_scaling():
    # linear homogeneous driver, xi -> 2 xi: exactly 2Y, 2Z, 2V bitwise
    marks = jb.make_mark_space([[1.0]], [1.0])
    gen = jb.make_generator("affine", {"a": 0.5, "b": [0.25], "c": [0.4]},
                            marks=marks, d=1)
    term1 = jb.make_terminal("state-linear",
                             {"brownian_weights": [1.0], "jump_weights": [0.5],
                              "compensated": True}, marks=marks, d=1)
    prob1 = jb.make_problem(1.0, 6, 1, marks, gen, term1)
    term2 = dataclasses.replace(term1,
                                fn=lambda ctx, _f=term1.fn: 2.0 * _f(ctx))
    prob2 = dataclasses.replace(prob1, terminal=term2)
    tree = jb.build_scenario_tree(prob1.grid, marks, 1)
    s1 = jb.solve_tree(prob1, tree)
    s2 = jb.solve_tree(prob2, tree)
    assert all(np.array_equal(b, 2.0 * a)
               for a, b in zip(s1.y_levels, s2.y_levels))
    assert all(np.array_equal(b, 2.0 * a)
               for a, b in zip(s1.z_levels, s2.z_levels))
    assert all(np.array_equal(b, 2.0 * a)
               for a, b in zip(s1.v_levels, s2.v_levels))


def test_bsde_residual_zero_on_affine():
    marks = jb.make_mark_space([[1.0]], [1.0])
    gen = jb.make_generator("affine", {"a": 0.3, "b": [0.2], "c": [0.1]},
                            marks=marks, d=1)
    term = jb.make_terminal("state-linear",
                            {"brownian_weights": [1.5], "jump_weights": [0.5],
                             "compensated": True, "shift": 0.7},
                            marks=marks, d=1)
    prob = jb.make_problem(1.0, 6, 1, marks, gen, term)
    tree = jb.build_scenario_tree(prob.grid, marks, 1)
    sol = jb.solve_tree(prob, tree)
    assert jb.bsde_residual_max(sol, prob) < 1e-12


def test_step_size_error():
    prob = _problem("affine", {"a": 9.0}, "constant", {"value": 1.0}, N=8)
    tree = jb.build_scenario_tree(prob.grid, prob.marks, 1)
    with pytest.raises(StepSizeError):
        jb.solve_tree(prob, tree)


def test_tree_problem_mismatch():
    prob = _problem("affine", {}, "constant", {"value": 1.0}, N=8)
    other = jb.build_scenario_tree(jb.make_time_grid(1.0, 4), prob.marks, 1)
    with pytest.raises(ValueError):
        jb.solve_tree(prob, other)


def test_implicit_lattice_solve_matches_explicit():
    # same problem solved with and without the node cap: identical lattices
    prob = _problem("affine", {"a": 0.5}, "brownian-functional",
                    {"kind": "square"}, N=6)
    t1 = jb.build_scenario_tree(prob.grid, prob.marks, 1)
    t2 = jb.build_scenario_tree(prob.grid, prob.marks, 1, node_cap=None)
    s1 = jb.solve_tree(prob, t1)
    s2 = jb.solve_tree(prob, t2)
    assert all(np.array_equal(a, b) for a, b in zip(s1.y_levels, s2.y_levels))
