"""Least-squares Monte Carlo solver and its agreement with the tree oracle."""

import dataclasses
import math

import numpy as np
import pytest

import jumpbsde as jb
from jumpbsde.errors import ConditioningError
from jumpbsde.norms import ProcessSample, mp_norm


def _problem(gen_params, term_form, term_params, T=1.0, N=8, lam=1.0):
    marks = jb.make_mark_space([[1.0]], [lam])
    gen = jb.make_generator("affine", gen_params, marks=marks, d=1)
    term = jb.make_terminal(term_form, term_params, marks=marks, d=1)
    return jb.make_problem(T, N, 1, marks, gen, term)


def test_constant_terminal():
    # Y is exact (constant targets regress exactly); fitted Z, V are pure
    # regression noise, small in the integrated norms but not pointwise
    prob = _problem({}, "constant", {"value": 3.0})
    batch = jb.simulate_paths(prob.grid, prob.marks, 1, 4000, seed=1)
    sol = jb.solve_mc_regression(prob, batch)
    assert np.allclose(sol.y, 3.0, atol=1e-9)
    assert mp_norm(ProcessSample(np.stack(sol.z, axis=1), prob.grid), 2.0) < 0.5
    assert float(np.mean(np.abs(sol.v))) < 0.5


def test_ode_oracle():
    # constant targets keep the solve deterministic: the only error is the
    # implicit-Euler bias a^2 T dt / 2 ~ 0.25%
    prob = _problem({"a": 0.5}, "constant", {"value": 1.0}, N=50)
    batch = jb.simulate_paths(prob.grid, prob.marks, 1, 10_000, seed=2)
    sol = jb.solve_mc_regression(prob, batch, basis_degree=2)
    assert abs(sol.y0 - math.exp(0.5)) / math.exp(0.5) < 0.005


def test_matches_tree_on_small_instance():
    # N=2 matched instance: MC Y0 within 3 SE of the tree Y0, SE estimated
    # from independent-seed replicates. lambda*dt is kept small so the tree's
    # one-jump-per-step lumping bias (first order in dt, and large at dt=0.5
    # with lambda=1) stays far below the Monte Carlo standard error.
    prob = _problem({"a": 0.5}, "state-linear",
                    {"brownian_weights": [1.0], "jump_weights": [0.7],
                     "compensated": True, "shift": 1.0}, N=2, lam=0.1)
    tree = jb.build_scenario_tree(prob.grid, prob.marks, 1)
    y_tree = jb.solve_tree(prob, tree).y0
    reps = []
    for seed in range(8):
        batch = jb.simulate_paths(prob.grid, prob.marks, 1, 10_000, seed=seed)
        reps.append(jb.solve_mc_regression(prob, batch).y0)
    se = np.std(reps, ddof=1)
    assert abs(reps[0] - y_tree) <= 3 * se
    # loose sanity on the replicate mean (it carries the seeds' shared luck)
    assert abs(np.mean(reps) - y_tree) <= 2 * se


def test_conditioning_error_under_determined():
    # more basis functions than paths: rank-deficient normal equations
    prob = _problem({}, "brownian-functional", {"kind": "linear"}, N=4)
    batch = jb.simulate_paths(prob.grid, prob.marks, 1, 3, seed=3)
    with pytest.raises(ConditioningError) as err:
        jb.solve_mc_regression(prob, batch, basis_degree=2)
    assert err.value.step == 3   # first regression step named


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_a_one_path_batch_is_rejected():
    # one path has no sample SE: the clamp-tail bound and the integrability
    # estimates would read NaN
    prob = _problem({"a": 0.5}, "brownian-functional", {"kind": "linear"},
                    N=4)
    batch = jb.simulate_paths(prob.grid, prob.marks, 1, 1, seed=3)
    with pytest.raises(ValueError, match="at least 2 paths, got 1"):
        jb.check_integrability(prob, n_paths=1, method="mc")
    with pytest.raises(ValueError, match="at least 2 paths, got 1"):
        jb.truncation_ladder_solve(prob, [1, 4], "mc", batch=batch,
                                   basis_degree=0)
    assert jb.check_integrability(prob, n_paths=2, method="mc")[
        "xi_abs_se"] >= 0.0


def test_degenerate_features_are_dropped():
    # a batch whose Brownian part is identically zero: the constant features
    # drop out and the fit degrades to the remaining information
    prob = _problem({}, "jump-count", {"compensated": False}, N=4, lam=2.0)
    batch = jb.simulate_paths(prob.grid, prob.marks, 1, 2000, seed=4)
    zeroed = dataclasses.replace(
        batch, brownian_increments=np.zeros_like(batch.brownian_increments))
    sol = jb.solve_mc_regression(prob, zeroed)
    counts, _ = zeroed.jump_counts()
    assert abs(sol.y0 - counts.mean()) < 1e-9


def test_deterministic_given_batch():
    prob = _problem({"a": 0.2, "b": [0.1]}, "brownian-functional",
                    {"kind": "square"}, N=6)
    batch = jb.simulate_paths(prob.grid, prob.marks, 1, 3000, seed=5)
    s1 = jb.solve_mc_regression(prob, batch)
    s2 = jb.solve_mc_regression(prob, batch)
    assert np.array_equal(s1.y, s2.y)
    assert np.array_equal(s1.z, s2.z)
    assert np.array_equal(s1.v, s2.v)


def test_grid_mismatch_rejected():
    prob = _problem({}, "constant", {"value": 1.0}, N=8)
    other = jb.simulate_paths(jb.make_time_grid(1.0, 4), prob.marks, 1,
                              100, seed=1)
    with pytest.raises(ValueError):
        jb.solve_mc_regression(prob, other)
