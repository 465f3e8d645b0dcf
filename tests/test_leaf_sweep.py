"""Explicit-tree path functionals from the leaf sweep against the path table.

The reference functions below and in ``reference.py`` are the
stack-by-state-index code the sweep replaced: they build the full (b^N, K)
path tables from ``reference.enumerate_paths`` and reduce them. Every value must agree bit
for bit, with subtree blocks from one row up to the whole tree.
"""

import collections
import json
import math
from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import jumpbsde as jb
from jumpbsde import cli, randomness, solver
from jumpbsde.estimates import (ci_suite, solution_functionals,
                                uniqueness_experiment, verify_full_estimate)
from jumpbsde.norms import (ProcessSample, StoppingFamily, class_d_norm,
                            sp_norm)
from jumpbsde.solver import (Solution, _LeafSweep, _setup, bsde_residual_max,
                             solution_norms)
from conftest import assert_same, random_levels, traced_peak
from reference import (enumerate_paths, lazy_diff, path_functionals,
                       path_table, tree_norms)
from test_meter import _problem


# ---------------------------------------------------------------------------
# the path-table reference
# ---------------------------------------------------------------------------

def _ref_functionals(solution, problem, p):
    grid, tree = problem.grid, solution.tree
    _, idx, w = enumerate_paths(tree)
    f0 = np.zeros(idx.shape[0])
    for k in range(grid.steps):
        ctx = problem.context(grid.nodes[k], tree.brownian_values(k),
                              tree.levels[k].jump_counts.astype(float))
        f0 += np.abs(problem.generator.zero_section(ctx))[idx[:, k]]
    return path_functionals(problem, p, *(path_table(f, idx) for f in (
        solution.y, solution.z, solution.v)), f0, w)


def _ref_class_d(sol_a, sol_b, tree):
    _, idx, w = enumerate_paths(tree)
    diff = [x - y for x, y in zip(sol_a.y, sol_b.y)]
    sample = ProcessSample(path_table(diff, idx), sol_a.grid, w)
    return class_d_norm(sample, StoppingFamily.default_for(sample))


def _ref_residual(solution, problem):
    tree = solution.tree
    ids, idx, _ = enumerate_paths(tree)
    N, b = tree.grid.steps, tree.branching
    dt = tree.grid.dt
    sqrt_dt = math.sqrt(dt)
    p_mark = np.array([tree.branch_probs[tree.branch_jump == i].sum()
                       for i in range(tree.marks.m)])
    worst = 0.0
    for k in range(N):
        digit = (ids // (b ** (N - 1 - k))) % b
        y_k = solution.y[k][idx[:, k]]
        y_k1 = solution.y[k + 1][idx[:, k + 1]]
        z_k = solution.z[k][idx[:, k]]
        v_k = solution.v[k][idx[:, k]]
        db = tree.sign_vectors[digit] * sqrt_dt
        jump = tree.branch_jump[digit]
        j_ind = np.zeros((ids.size, tree.marks.m))
        has = jump >= 0
        j_ind[has, jump[has]] = 1.0
        ctx = problem.context(tree.grid.nodes[k], tree.brownian_values(k),
                              tree.levels[k].jump_counts.astype(float))
        f_k = problem.generator(ctx, solution.y[k], solution.z[k],
                                solution.v[k])[idx[:, k]]
        resid = (y_k1 - y_k + f_k * dt
                 - np.einsum("nd,nd->n", z_k, db)
                 - np.einsum("nm,nm->n", v_k, j_ind - p_mark))
        worst = max(worst, float(np.max(np.abs(resid))))
    return worst


# ---------------------------------------------------------------------------
# random solutions on random trees
# ---------------------------------------------------------------------------

def _solution(rng, problem, tree, k_lo=0, k_hi=None, coarse=False):
    k_hi = problem.grid.steps if k_hi is None else k_hi
    sizes = [tree.n_states(k) for k in range(k_lo, k_hi + 1)]
    y = random_levels(rng, sizes, coarse=coarse)
    return Solution(kind="tree", grid=problem.grid,
                    fingerprint=problem.fingerprint(), y0=float(y[0][0]),
                    tree=tree, y=y,
                    z=random_levels(rng, sizes[:-1], problem.d, coarse),
                    v=random_levels(rng, sizes[:-1], problem.marks.m, coarse))


@st.composite
def _cases(draw):
    d = draw(st.sampled_from([1, 2]))
    m = draw(st.sampled_from([1, 2]))
    b = 2 ** d * (1 + m)
    n_max = max(n for n in range(1, 6) if b ** n <= 40_000)
    N = draw(st.integers(1, n_max))
    return {
        "d": d, "m": m, "N": N,
        "q": draw(st.one_of(st.floats(1.01, 1.99), st.just(2.0))),
        "seed": draw(st.integers(0, 2 ** 32 - 1)),
        "rows": draw(st.sampled_from([1, 3, 17, 1 << 14])),
        "coarse": draw(st.booleans()),
    }


@settings(max_examples=40, deadline=None)
@given(_cases())
def test_full_range_functionals_bit_for_bit(case):
    problem = _problem(case["d"], case["m"], case["N"])
    tree = jb.build_scenario_tree(problem.grid, problem.marks, case["d"])
    rng = np.random.default_rng(case["seed"])
    a, b = (_solution(rng, problem, tree, coarse=case["coarse"])
            for _ in range(2))
    q = case["q"]
    with mock.patch.object(_LeafSweep, "CHUNK_ROWS", case["rows"]):
        # the tree builds its walk set at the first functional, here
        assert "walks" not in vars(tree)
        # Picard distances and solution norms
        rep = _setup(problem, "tree", tree)
        diffs = [[x - y for x, y in zip(getattr(a, f), getattr(b, f))]
                 for f in ("y", "z", "v")]
        assert_same(rep.norms(q, *lazy_diff(a, b)),
                     tree_norms(problem, tree, q, *diffs))
        norms = solution_norms(a, problem, q)
        assert_same([norms["sp"], norms["mp"], norms["lp"]],
                     tree_norms(problem, tree, q, a.y, a.z, a.v))
        assert norms["n_paths"] == tree.n_leaves
        # estimate functionals, every array
        got = solution_functionals(a, problem, q)
        want = _ref_functionals(a, problem, q)
        assert got.keys() == want.keys()
        for key in want:
            assert_same(got[key], want[key])
        # class-D distance, time and first-hit rules
        assert_same(rep.class_d(lazy_diff(a, b)[0]),
                     _ref_class_d(a, b, tree))
        # residual diagnostic
        assert_same(bsde_residual_max(a, problem), _ref_residual(a, problem))


@settings(max_examples=30, deadline=None)
@given(_cases(), st.data())
def test_sub_range_distances_bit_for_bit(case, data):
    # chained solves meter the distance over [k_lo, k_hi] with k_lo > 0
    N = max(case["N"], 2)
    problem = _problem(case["d"], case["m"], N)
    b = 2 ** case["d"] * (1 + case["m"])
    if b ** N > 40_000:
        N = 2
        problem = _problem(case["d"], case["m"], N)
    tree = jb.build_scenario_tree(problem.grid, problem.marks, case["d"])
    k_lo = data.draw(st.integers(1, N - 1))
    k_hi = data.draw(st.integers(k_lo + 1, N))
    rng = np.random.default_rng(case["seed"])
    a, b_ = (_solution(rng, problem, tree, k_lo, k_hi, case["coarse"])
             for _ in range(2))
    diffs = [[x - y for x, y in zip(getattr(a, f), getattr(b_, f))]
             for f in ("y", "z", "v")]
    with mock.patch.object(_LeafSweep, "CHUNK_ROWS", case["rows"]):
        assert "walks" not in vars(tree)
        rep = _setup(problem, "tree", tree)
        assert_same(rep.norms(case["q"], *lazy_diff(a, b_), k_lo=k_lo),
                     tree_norms(problem, tree, case["q"], *diffs, k_lo))


def test_uniqueness_distance_bit_for_bit():
    # two Picard starts cut off after two iterations: their S^q distance is
    # not zero, and must be the path-table value
    problem = _problem(2, 1, 4)
    tree = jb.build_scenario_tree(problem.grid, problem.marks, 2)
    res = uniqueness_experiment(problem, "tree", tree=tree, tol=1e-15,
                                max_iter=2)
    assert res["conclusive"]
    runs = [jb.picard_solve(problem, "tree", tree=tree, tol=1e-15, max_iter=2,
                            check_assumptions=False, init=init)[0]
            for init in ((0.0, 0.0, 0.0), (10.0, 1.0, 1.0))]
    _, idx, w = enumerate_paths(tree)
    diff = [x - y for x, y in zip(runs[0].y, runs[1].y)]
    want = sp_norm(ProcessSample(path_table(diff, idx), problem.grid, w),
                   res["q"])
    assert want > 0.0
    assert_same(res["max_pairwise_sq_distance"], want)


def test_functionals_memory_has_no_depth_factor():
    # 4^8 leaves: the functionals hold a few b^N-long vectors, never a
    # (b^N, N+1) table
    problem = _problem(1, 1, 8)
    tree = jb.build_scenario_tree(problem.grid, problem.marks, 1)
    sol = jb.solve_tree(problem, tree)
    unit = 8 * tree.n_leaves
    fn, _, peak = traced_peak(solution_functionals, sol, problem, 1.5)
    assert len(fn) == 6 and all(a.size == tree.n_leaves for a in fn.values())
    assert peak < 8 * unit


# ---------------------------------------------------------------------------
# the shared walk set
# ---------------------------------------------------------------------------

def _walk_set_spy():
    return mock.patch.object(randomness, "_walk_set",
                             wraps=randomness._walk_set)


def test_walk_set_enumerates_the_path_table():
    problem = _problem(2, 1, 3)
    tree = jb.build_scenario_tree(problem.grid, problem.marks, 2)
    _, idx, want_probs = enumerate_paths(tree)
    (walks, probs), b = tree.walks, tree.branching
    for k, states in enumerate(walks):
        assert states.dtype == np.intp
        assert np.array_equal(np.repeat(states, b ** (3 - k)), idx[:, k])
    assert_same(probs, want_probs)
    unit = 8 * tree.n_leaves
    assert sum(states.nbytes for states in walks) <= 1.4 * unit


def test_representations_and_sub_range_meters_share_one_walk_set():
    # two representations on one tree, one metering a chained interval
    # [k_lo, N] with k_lo > 0, read the one walk set the tree builds
    N, k_lo, q = 4, 2, 1.5
    problem = _problem(1, 2, N)
    tree = jb.build_scenario_tree(problem.grid, problem.marks, 1)
    rng = np.random.default_rng(11)
    a, b_ = (_solution(rng, problem, tree) for _ in range(2))
    c, d_ = (_solution(rng, problem, tree, k_lo) for _ in range(2))
    with _walk_set_spy() as spy, \
            mock.patch.object(_LeafSweep, "CHUNK_ROWS", 7):
        full, sub = (_setup(problem, "tree", tree) for _ in range(2))
        got_sub = sub.norms(q, *lazy_diff(c, d_), k_lo=k_lo)
        got_full = full.norms(q, *lazy_diff(a, b_))
    assert spy.call_count == 1
    assert full.sweep.walks is sub.sweep.walks is tree.walks[0]
    assert full.weights is sub.weights is tree.walks[1]
    diffs = [[x - y for x, y in zip(getattr(c, f), getattr(d_, f))]
             for f in "yzv"]
    assert_same(got_sub, tree_norms(problem, tree, q, *diffs, k_lo))
    diffs = [[x - y for x, y in zip(getattr(a, f), getattr(b_, f))]
             for f in "yzv"]
    assert_same(got_full, tree_norms(problem, tree, q, *diffs))


def _verify(tmp_path):
    """``cli.main`` verify on a 4^5-leaf tree; returns the exit code."""
    config = tmp_path / "verify.json"
    config.write_text(json.dumps({
        "schema": "jumpbsde/run-config/v1", "method": "tree",
        "grid_steps": 5, "problem": {
            "horizon": 1.0, "dim": 1,
            "marks": {"marks": [[1.0]], "intensities": [1.0]},
            "generator": {"form": "lipschitz-smooth",
                          "params": {"ay": 0.5, "bz": [0.25], "cv": 0.25},
                          "p": 2.0},
            "terminal": {"form": "state-linear",
                         "params": {"brownian_weights": [1.0],
                                    "jump_weights": [0.5],
                                    "compensated": True}}}}))
    return cli.main(["verify", "--config", str(config),
                     "--out", str(tmp_path / "out")])


def test_one_walk_set_per_tree_in_a_verify_run(tmp_path):
    # the Picard solve, both estimates and the uniqueness experiment each
    # read the path functionals of the verify run's one tree
    with _walk_set_spy() as spy:
        assert _verify(tmp_path) == 0
    assert spy.call_count == 1


_TERMS = ("sup_abs_y", "int_z_sq", "int_v_p", "int_f0_abs", "xi_abs")


def _count_terms(calls):
    """Patch the path functionals to count each one's reductions by name."""
    terms_of = solver._PathEstimators.functional_terms

    def counted(self, *args):
        return {name: lambda name=name, term=term: (calls.update([name])
                                                    or term())
                for name, term in terms_of(self, *args).items()}

    return mock.patch.object(solver._PathEstimators, "functional_terms",
                             counted)


def test_both_estimates_reduce_each_functional_once(tmp_path):
    # a verify run's zv and full estimates share one pass over the path
    # functionals, and so does each instance of the CI suite
    calls = collections.Counter()
    with _count_terms(calls):
        assert _verify(tmp_path) == 0
    assert calls == dict.fromkeys(_TERMS, 1)
    calls.clear()
    with _count_terms(calls):
        records = ci_suite()
    assert calls == dict.fromkeys(_TERMS, len(records))


def test_full_estimate_memory_is_a_few_leaf_vectors():
    # 4^8 leaves: the estimate sums the terms of each side into one
    # per-path vector, and the walk set it builds stays resident (its
    # states and the leaf probabilities, under 2.4 vectors of 8 b^N bytes)
    problem = _problem(1, 1, 8)
    tree = jb.build_scenario_tree(problem.grid, problem.marks, 1)
    sol = jb.solve_tree(problem, tree)
    unit = 8 * tree.n_leaves
    report, kept, peak = traced_peak(verify_full_estimate, sol, problem, 1.5)
    assert report.lhs > 0 and report.rhs_core > 0
    assert kept < 2.4 * unit
    assert peak < 7 * unit
