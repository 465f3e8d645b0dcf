"""A priori estimate verifiers, the CI suite, and the uniqueness experiment."""

import dataclasses
import math

import numpy as np
import pytest

import jumpbsde as jb
from jumpbsde.estimates import ci_suite, ci_suite_csv_rows
from reference import state_paths

# frozen seed-pinned baseline of the 12-instance suite (exact tree solves);
# regressions beyond 10% fail
SUITE_MAX_IMPLIED = 3.7632092924


def _tree_solution(gen_form, gen_params, term_form, term_params, T=1.0, N=6,
                   lam=1.0, p=2.0):
    marks = jb.make_mark_space([[1.0]], [lam])
    gen = jb.make_generator(gen_form, gen_params, marks=marks, d=1, p=p)
    term = jb.make_terminal(term_form, term_params, marks=marks, d=1, p=p)
    prob = jb.make_problem(T, N, 1, marks, gen, term)
    tree = jb.build_scenario_tree(prob.grid, marks, 1)
    return jb.solve_tree(prob, tree), prob


def test_constant_instance_exact_constants():
    sol, prob = _tree_solution("affine", {}, "constant", {"value": 2.0})
    full = jb.verify_full_estimate(sol, prob, 2.0)
    assert full.implied_constant == 1.0     # lhs and rhs are the same bits
    assert full.passed
    zv = jb.verify_zv_estimate(sol, prob, 2.0)
    assert zv.lhs == 0.0 and zv.implied_constant == 0.0 and zv.passed


def test_brownian_instance_half_constant():
    # f = 0, xi = B_T, p = 2: lhs = T (Z = 1), rhs = E[sup |B|^2] = 1.832 T,
    # so the implied constant sits near 1/1.832 = 0.546 (the grid max is a
    # touch below the continuous sup, pushing it slightly up). Built on exact
    # per-path functionals of a hand-assembled solution over a fine grid.
    N, n = 1000, 20_000
    grid = jb.make_time_grid(1.0, N)
    marks = jb.make_mark_space([[1.0]], [1.0])
    gen = jb.make_generator("affine", {}, marks=marks, d=1)
    term = jb.make_terminal("brownian-functional", {"kind": "linear"},
                            marks=marks, d=1)
    prob = jb.make_problem(1.0, N, 1, marks, gen, term)
    batch = jb.simulate_paths(grid, marks, 1, n, seed=19)
    bvals, _ = state_paths(batch)
    sol = jb.Solution(
        kind="paths", grid=grid, fingerprint=prob.fingerprint(),
        y0=0.0, batch=batch,
        y=[bvals[:, k, 0] for k in range(N + 1)],
        z=[np.ones((n, 1)) for _ in range(N)],
        v=[np.zeros((n, 1)) for _ in range(N)])
    rep = jb.verify_zv_estimate(sol, prob, 2.0)
    assert 0.50 <= rep.implied_constant <= 0.60
    assert rep.passed


def test_jump_instance_finite_constant():
    # xi = compensated count, lambda = 2, T = 1, p = 2: lhs ~ ||V||^2 term = 2
    sol, prob = _tree_solution("affine", {}, "jump-count",
                               {"compensated": True}, N=8, lam=2.0)
    rep = jb.verify_zv_estimate(sol, prob, 2.0)
    assert np.isfinite(rep.implied_constant) and rep.passed
    assert abs(rep.lhs - 2.0) < 0.25   # one-jump lumping bias at dt = 1/8


def test_gronwall_trend_in_horizon():
    # f = a y, xi = c: implied constant grows like e^{a p T}
    implied = []
    for T in (0.5, 1.0, 2.0):
        sol, prob = _tree_solution("affine", {"a": 0.5}, "constant",
                                   {"value": 1.0}, T=T, N=8)
        implied.append(jb.verify_full_estimate(sol, prob, 2.0).implied_constant)
    assert implied[0] < implied[1] < implied[2]
    assert abs(implied[2] - math.exp(0.5 * 2 * 2.0)) / math.exp(2.0) < 0.25


def test_kappa_sweep_monotone():
    implied = []
    for kappa in (0.5, 1.0, 2.0):
        sol, prob = _tree_solution("affine", {"a": kappa}, "constant",
                                   {"value": 1.0}, N=8)
        implied.append(jb.verify_full_estimate(sol, prob, 2.0).implied_constant)
    assert implied[0] <= implied[1] <= implied[2]


def test_scale_covariance_bit_exact():
    # (xi, f) -> (2 xi, 2 f) with p = 2: lhs and rhs scale by 4 exactly and
    # the implied constant is bit-identical
    marks = jb.make_mark_space([[1.0]], [1.0])
    gen = jb.make_generator("affine", {"a": 0.5, "b": [0.25], "c": [0.4]},
                            marks=marks, d=1)
    term = jb.make_terminal("state-linear",
                            {"brownian_weights": [1.0], "jump_weights": [0.5],
                             "compensated": True}, marks=marks, d=1)
    prob1 = jb.make_problem(1.0, 6, 1, marks, gen, term)
    term2 = dataclasses.replace(term, fn=lambda ctx, _f=term.fn: 2.0 * _f(ctx))
    prob2 = dataclasses.replace(prob1, terminal=term2)
    tree = jb.build_scenario_tree(prob1.grid, marks, 1)
    s1, s2 = jb.solve_tree(prob1, tree), jb.solve_tree(prob2, tree)
    for verify in (jb.verify_zv_estimate, jb.verify_full_estimate):
        r1, r2 = verify(s1, prob1, 2.0), verify(s2, prob2, 2.0)
        assert r2.lhs == 4.0 * r1.lhs
        assert r2.rhs_core == 4.0 * r1.rhs_core
        assert r2.implied_constant == r1.implied_constant


def test_anomalous_lhs_without_rhs_fails():
    # rhs_core = 0 with lhs > 0 can only arise from numerical error; the
    # report flags it and fails rather than dividing by zero
    marks = jb.make_mark_space([[1.0]], [1.0])
    gen = jb.make_generator("affine", {}, marks=marks, d=1)
    term = jb.make_terminal("constant", {"value": 0.0}, marks=marks, d=1)
    prob = jb.make_problem(1.0, 4, 1, marks, gen, term)
    grid = prob.grid
    batch = jb.simulate_paths(grid, marks, 1, 50, seed=1)
    broken = jb.Solution(kind="paths", grid=grid,
                         fingerprint=prob.fingerprint(), y0=0.0, batch=batch,
                         y=[np.zeros(50) for _ in range(5)],
                         z=[np.ones((50, 1)) for _ in range(4)],
                         v=[np.zeros((50, 1)) for _ in range(4)])
    rep = jb.verify_zv_estimate(broken, prob, 2.0)
    assert rep.anomalous and not rep.passed


def test_ceiling_enforced():
    sol, prob = _tree_solution("affine", {"a": 0.5}, "constant",
                               {"value": 1.0})
    rep = jb.verify_full_estimate(sol, prob, 2.0, ceiling=1e-9)
    assert not rep.passed


def test_full_estimate_requires_p_above_one():
    sol, prob = _tree_solution("affine", {}, "constant", {"value": 1.0})
    with pytest.raises(ValueError):
        jb.verify_full_estimate(sol, prob, 1.0)


def test_ci_suite_stable():
    records = ci_suite()
    assert len(records) == 12
    consts = [max(r["zv"].implied_constant, r["full"].implied_constant)
              for r in records]
    assert all(np.isfinite(consts))
    assert all(r["zv"].passed and r["full"].passed for r in records)
    assert max(consts) <= SUITE_MAX_IMPLIED * 1.10
    assert max(consts) >= SUITE_MAX_IMPLIED * 0.50   # suite unchanged sanity
    rows = ci_suite_csv_rows(records)
    assert len(rows) == 13                            # header + 12 instances


# ---------------------------------------------------------------------------
# uniqueness
# ---------------------------------------------------------------------------

def test_uniqueness_tree_decoupled_exact():
    marks = jb.make_mark_space([[1.0]], [1.0])
    gen = jb.make_generator("affine", {"a": 0.5}, marks=marks, d=1)
    term = jb.make_terminal("brownian-functional", {"kind": "linear"},
                            marks=marks, d=1)
    prob = jb.make_problem(1.0, 6, 1, marks, gen, term)
    res = jb.uniqueness_experiment(prob, "tree", tol=1e-10)
    assert res["conclusive"] and res["passed"]
    assert res["max_pairwise_sq_distance"] == 0.0   # inner solve ignores init


def test_uniqueness_tree_coupled():
    marks = jb.make_mark_space([[1.0]], [1.0])
    gen = jb.make_generator("affine", {"b": [0.25]}, marks=marks, d=1)
    term = jb.make_terminal("brownian-functional", {"kind": "linear"},
                            marks=marks, d=1)
    prob = jb.make_problem(1.0, 6, 1, marks, gen, term)
    res = jb.uniqueness_experiment(prob, "tree", tol=1e-10)
    assert res["passed"]
    assert res["max_pairwise_sq_distance"] <= 2e-10


def test_uniqueness_mc_basis_variants():
    marks = jb.make_mark_space([[1.0]], [1.0])
    gen = jb.make_generator("zv-coupled", {"cz": 0.3, "cv": 0.3},
                            marks=marks, d=1)
    term = jb.make_terminal("brownian-functional", {"kind": "square"},
                            marks=marks, d=1)
    prob = jb.make_problem(1.0, 8, 1, marks, gen, term)
    batch = jb.simulate_paths(prob.grid, marks, 1, 10_000, seed=6)
    res = jb.uniqueness_experiment(
        prob, "mc", perturbations=[{"init": (0.0, 0.0, 0.0), "basis_degree": 2},
                                   {"init": (0.0, 0.0, 0.0), "basis_degree": 3}],
        batch=batch, tol=1e-8, n_paths=10_000, seed=6)
    assert res["conclusive"]
    assert res["passed"]


def test_uniqueness_inconclusive_on_divergence():
    marks = jb.make_mark_space([[1.0]], [1.0])
    gen = jb.make_generator("zv-coupled", {"cz": 5.0, "cv": 5.0},
                            marks=marks, d=1)
    term = jb.make_terminal("brownian-functional", {"kind": "square"},
                            marks=marks, d=1)
    prob = jb.make_problem(10.0, 60, 1, marks, gen, term)
    res = jb.uniqueness_experiment(prob, "tree", tol=1e-9, node_cap=None,
                                   max_iter=12)
    assert res["conclusive"] is False
    assert res["passed"] is None
