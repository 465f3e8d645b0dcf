"""Explicit-tree path functionals from the leaf sweep against the path table.

The reference functions below are the stack-by-state-index code the sweep
replaced: they build the full (b^N, K) path tables from
``ScenarioTree.enumerate_paths`` and reduce them. Every value must agree bit
for bit, with subtree blocks from one row up to the whole tree.
"""

import math
import tracemalloc
from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import jumpbsde as jb
from jumpbsde.estimates import solution_functionals, uniqueness_experiment
from jumpbsde.norms import (ProcessSample, StoppingFamily, class_d_norm,
                            mp_norm, sp_norm)
from jumpbsde.solver import (Solution, _LeafSweep, _diff, _setup,
                             bsde_residual_max, solution_norms)


# ---------------------------------------------------------------------------
# the path-table reference
# ---------------------------------------------------------------------------

def _paths(levels, idx, k0=0):
    return np.stack([lev[idx[:, k0 + k]] for k, lev in enumerate(levels)],
                    axis=1)


def _ref_norms(problem, q, y, z, v, tree, k0=0):
    grid, marks = problem.grid, problem.marks
    _, idx, w = tree.enumerate_paths()
    ypaths, zpaths, vpaths = (_paths(a, idx, k0) for a in (y, z, v))
    dy = sp_norm(ProcessSample(ypaths, grid, w), q)
    dz = mp_norm(ProcessSample(zpaths, grid, w), q)
    dv = float(np.einsum("n,n->", w,
                         np.einsum("njm,m->n", np.abs(vpaths) ** q,
                                   marks.intensities)) * grid.dt) ** (1 / q)
    return dy, dz, dv


def _ref_functionals(solution, problem, p):
    grid, marks, tree = problem.grid, problem.marks, solution.tree
    dt, N = grid.dt, grid.steps
    _, idx, w = tree.enumerate_paths()
    y = _paths(solution.y, idx)
    z = _paths(solution.z, idx)
    v = _paths(solution.v, idx)
    f0 = np.zeros(y.shape[0])
    for k in range(N):
        ctx = problem.context(grid.nodes[k], tree.brownian_values(k),
                              tree.levels[k].jump_counts.astype(float))
        f0 += np.abs(problem.generator.zero_section(ctx))[idx[:, k]]
    f0 *= dt
    return {
        "weights": w,
        "sup_abs_y": np.max(np.abs(y), axis=1),
        "int_z_sq": np.einsum("njd,njd->n", z, z) * dt,
        "int_v_p": np.einsum("njm,m->n", np.abs(v) ** p,
                             marks.intensities) * dt,
        "int_f0_abs": f0,
        "xi_abs": np.abs(y[:, -1]),
    }


def _ref_class_d(sol_a, sol_b, tree):
    _, idx, w = tree.enumerate_paths()
    diff = [x - y for x, y in zip(sol_a.y, sol_b.y)]
    sample = ProcessSample(_paths(diff, idx), sol_a.grid, w)
    return class_d_norm(sample, StoppingFamily.default_for(sample))


def _ref_residual(solution, problem):
    tree = solution.tree
    ids, idx, _ = tree.enumerate_paths()
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

def _problem(d, m, N):
    marks = jb.make_mark_space([[1.0 + i] for i in range(m)],
                               [0.7 + 0.6 * i for i in range(m)])
    gen = jb.make_generator("lipschitz-smooth",
                            {"ay": 0.5, "bz": [0.25] * d, "cv": 0.25},
                            marks=marks, d=d)
    term = jb.make_terminal("state-linear",
                            {"brownian_weights": [1.0] * d,
                             "jump_weights": [0.5] * m, "compensated": True},
                            marks=marks, d=d)
    return jb.make_problem(1.0, N, d, marks, gen, term)


def _levels(rng, tree, k_lo, k_hi, width=None, coarse=False):
    """Random level arrays over many scales, with some zeros; coarse values
    (multiples of 1/2) repeat across depths, so first-hit rules meet their
    level exactly."""
    out = []
    for k in range(k_lo, k_hi + 1):
        shape = (tree.n_states(k),) + (() if width is None else (width,))
        if coarse:
            vals = rng.integers(-3, 4, size=shape) * 0.5
        else:
            vals = rng.normal(size=shape) * 10.0 ** rng.uniform(-3, 3,
                                                                size=shape)
            vals[rng.uniform(size=shape) < 0.1] = 0.0
        out.append(vals)
    return out


def _solution(rng, problem, tree, k_lo=0, k_hi=None, coarse=False):
    k_hi = problem.grid.steps if k_hi is None else k_hi
    y = _levels(rng, tree, k_lo, k_hi, coarse=coarse)
    return Solution(kind="tree", grid=problem.grid,
                    fingerprint=problem.fingerprint(), y0=float(y[0][0]),
                    tree=tree, y=y,
                    z=_levels(rng, tree, k_lo, k_hi - 1, problem.d, coarse),
                    v=_levels(rng, tree, k_lo, k_hi - 1, problem.marks.m,
                              coarse))


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


def _assert_same(got, want):
    assert np.asarray(got).tobytes() == np.asarray(want).tobytes()


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
        # Picard distances and solution norms
        rep = _setup(problem, "tree", tree)
        diffs = [[x - y for x, y in zip(getattr(a, f), getattr(b, f))]
                 for f in ("y", "z", "v")]
        _assert_same(rep.norms(q, *_diff(a, b)),
                     _ref_norms(problem, q, *diffs, tree))
        norms = solution_norms(a, problem, q)
        _assert_same([norms["sp"], norms["mp"], norms["lp"]],
                     _ref_norms(problem, q, a.y, a.z, a.v, tree))
        assert norms["n_paths"] == tree.n_leaves
        # estimate functionals, every array
        got = solution_functionals(a, problem, q)
        want = _ref_functionals(a, problem, q)
        assert got.keys() == want.keys()
        for key in want:
            _assert_same(got[key], want[key])
        # class-D distance, time and first-hit rules
        _assert_same(rep.class_d(_diff(a, b)[0]),
                     _ref_class_d(a, b, tree))
        # residual diagnostic
        _assert_same(bsde_residual_max(a, problem), _ref_residual(a, problem))


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
        rep = _setup(problem, "tree", tree)
        _assert_same(rep.norms(case["q"], *_diff(a, b_), k_lo=k_lo),
                     _ref_norms(problem, case["q"], *diffs, tree, k_lo))


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
    _, idx, w = tree.enumerate_paths()
    diff = [x - y for x, y in zip(runs[0].y, runs[1].y)]
    want = sp_norm(ProcessSample(_paths(diff, idx), problem.grid, w), res["q"])
    assert want > 0.0
    _assert_same(res["max_pairwise_sq_distance"], want)


def test_functionals_memory_has_no_depth_factor():
    # 4^8 leaves: the functionals hold a few b^N-long vectors, never a
    # (b^N, N+1) table
    problem = _problem(1, 1, 8)
    tree = jb.build_scenario_tree(problem.grid, problem.marks, 1)
    sol = jb.solve_tree(problem, tree)
    unit = 8 * tree.n_leaves
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        fn = solution_functionals(sol, problem, 1.5)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert len(fn) == 6 and all(a.size == tree.n_leaves for a in fn.values())
    assert peak < 8 * unit
