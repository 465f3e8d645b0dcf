"""Path-batch estimators on per-depth solution fields against path arrays.

A path-batch solution holds one (n,), (n, d) or (n, m) array per depth. The
reference functions below are the path-array formulas those estimators
replaced: they stack the depths into (n, K[, width]) arrays and reduce them
along the depth axis. Every value must agree bit for bit. The clamp-tail
bound is checked against its two former loops, the marginal sum on a
lattice and the per-path sum on a batch.
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import jumpbsde as jb
from jumpbsde.estimates import solution_functionals
from jumpbsde.norms import (ProcessSample, StoppingFamily, class_d_norm,
                            mp_from_sq, sp_from_sup)
from jumpbsde.solver import (Solution, _clamp_tail, _data_levels, _setup,
                             solution_norms)


# ---------------------------------------------------------------------------
# the path-array reference
# ---------------------------------------------------------------------------

def _arrays(sol):
    return tuple(np.stack(f, axis=1) for f in (sol.y, sol.z, sol.v))


def _lazy_diff(a, b):
    """Per-depth (Y, Z, V) differences of two solutions, read lazily, as the
    Picard meter passes them."""
    return [map(np.subtract, getattr(a, f), getattr(b, f)) for f in "yzv"]


def _ref_norms(problem, q, y, z, v):
    n, dt = y.shape[0], problem.grid.dt
    w = np.full(n, 1.0 / n)
    v_p = np.einsum("njm,m->n", np.abs(v) ** q, problem.marks.intensities)
    return (sp_from_sup(np.max(np.abs(y), axis=1), w, q),
            mp_from_sq(np.einsum("njd,njd->n", z, z) * dt, w, q),
            float(np.mean(v_p) * dt) ** (1 / q))


def _contexts(problem, batch):
    bvals, counts = batch.state_paths()
    return [problem.context(problem.grid.nodes[k], bvals[:, k, :],
                            counts[:, k, :])
            for k in range(problem.grid.steps + 1)]


def _ref_functionals(sol, problem, p):
    y, z, v = _arrays(sol)
    n, dt, N = y.shape[0], problem.grid.dt, problem.grid.steps
    ctx = _contexts(problem, sol.batch)
    f0 = np.zeros(n)
    for k in range(N):
        f0 = np.add(f0, np.abs(problem.generator.zero_section(ctx[k])))
    return {
        "weights": np.full(n, 1.0 / n),
        "sup_abs_y": np.max(np.abs(y), axis=1),
        "int_z_sq": np.einsum("njd,njd->n", z, z) * dt,
        "int_v_p": np.einsum("njm,m->n", np.abs(v) ** p,
                             problem.marks.intensities) * dt,
        "int_f0_abs": f0 * dt,
        "xi_abs": np.abs(y[:, -1]),
    }


def _ref_class_d(a, b, grid):
    sample = ProcessSample(_arrays(a)[0] - _arrays(b)[0], grid)
    return class_d_norm(sample, StoppingFamily.default_for(sample))


def _ref_tail_batch(problem, batch, n):
    N, dt = problem.grid.steps, problem.grid.dt
    ctx = _contexts(problem, batch)
    xi = problem.terminal(ctx[N])
    per_path = np.abs(xi) * (np.abs(xi) > n)
    for k in range(N):
        f0 = problem.generator.zero_section(ctx[k])
        per_path = per_path + np.abs(f0) * (np.abs(f0) > n) * dt
    return (float(per_path.mean()),
            float(per_path.std(ddof=1) / math.sqrt(per_path.size)))


def _ref_tail_lattice(problem, tree, n):
    N, dt = problem.grid.steps, problem.grid.dt

    def ctx(k):
        return problem.context(problem.grid.nodes[k], tree.brownian_values(k),
                               tree.levels[k].jump_counts.astype(float))

    xi = problem.terminal(ctx(N))
    total = float(np.einsum("n,n->", tree.state_probs(N),
                            np.abs(xi) * (np.abs(xi) > n)))
    for k in range(N):
        f0 = problem.generator.zero_section(ctx(k))
        total += float(np.einsum("n,n->", tree.state_probs(k),
                                 np.abs(f0) * (np.abs(f0) > n))) * dt
    return total, 0.0


# ---------------------------------------------------------------------------
# random per-depth solutions on random batches
# ---------------------------------------------------------------------------

def _problem(d, m, N):
    marks = jb.make_mark_space([[1.0 + i] for i in range(m)],
                               [0.7 + 0.6 * i for i in range(m)])

    def driver(ctx, y, z, v):
        # a zero section that varies over the states
        return (0.5 * np.sin(y) + np.cos(3.0 * ctx.brownian[:, 0])
                * (1.0 + ctx.jump_counts[:, 0]))

    gen = jb.GeneratorSpec(f=driver, lipschitz_kappa=0.5)
    term = jb.TerminalSpec(fn=lambda ctx: np.exp(ctx.brownian.sum(axis=1))
                           - ctx.jump_counts.sum(axis=1))
    return jb.make_problem(1.0, N, d, marks, gen, term)


def _levels(rng, n, count, width=None, coarse=False):
    """Random per-depth levels over many scales, with some zeros; coarse
    values (multiples of 1/2) repeat across depths, so first-hit rules meet
    their level exactly."""
    out = []
    for _ in range(count):
        shape = (n,) + (() if width is None else (width,))
        if coarse:
            vals = rng.integers(-3, 4, size=shape) * 0.5
        else:
            vals = rng.normal(size=shape) * 10.0 ** rng.uniform(-3, 3,
                                                                size=shape)
            vals[rng.uniform(size=shape) < 0.1] = 0.0
        out.append(vals)
    return out


def _solution(rng, problem, batch, k_lo, k_hi, coarse):
    n, steps = batch.n_paths, k_hi - k_lo
    y = _levels(rng, n, steps + 1, coarse=coarse)
    return Solution(kind="paths", grid=problem.grid,
                    fingerprint=problem.fingerprint(), y0=float(y[0][0]),
                    batch=batch, y=y,
                    z=_levels(rng, n, steps, problem.d, coarse),
                    v=_levels(rng, n, steps, problem.marks.m, coarse))


@st.composite
def _cases(draw):
    return {
        "d": draw(st.sampled_from([1, 2])),
        "m": draw(st.sampled_from([1, 2])),
        "N": draw(st.integers(1, 5)),
        "n": draw(st.integers(2, 300)),
        "q": draw(st.one_of(st.floats(1.01, 1.99), st.just(2.0))),
        "seed": draw(st.integers(0, 2 ** 32 - 1)),
        "coarse": draw(st.booleans()),
    }


def _assert_same(got, want):
    assert np.asarray(got).tobytes() == np.asarray(want).tobytes()


@settings(max_examples=40, deadline=None)
@given(_cases())
def test_batch_estimators_bit_for_bit(case):
    problem = _problem(case["d"], case["m"], case["N"])
    batch = jb.simulate_paths(problem.grid, problem.marks, case["d"],
                              case["n"], case["seed"] % 1000)
    rng = np.random.default_rng(case["seed"])
    N, q = case["N"], case["q"]
    a, b = (_solution(rng, problem, batch, 0, N, case["coarse"])
            for _ in range(2))
    rep = _setup(problem, "mc", batch=batch)
    diffs = [x - y for x, y in zip(_arrays(a), _arrays(b))]
    # the Picard triple and the solution norms
    _assert_same(rep.norms(q, *_lazy_diff(a, b)), _ref_norms(problem, q, *diffs))
    norms = solution_norms(a, problem, q)
    _assert_same([norms["sp"], norms["mp"], norms["lp"]],
                 _ref_norms(problem, q, *_arrays(a)))
    # estimate functionals, every array
    got = solution_functionals(a, problem, q)
    want = _ref_functionals(a, problem, q)
    assert got.keys() == want.keys()
    for key in want:
        _assert_same(got[key], want[key])
    # class-D distance, time and first-hit rules
    _assert_same(rep.class_d(_lazy_diff(a, b)[0]),
                 _ref_class_d(a, b, problem.grid))


@settings(max_examples=30, deadline=None)
@given(_cases(), st.data())
def test_batch_sub_range_distances_bit_for_bit(case, data):
    # chained solves meter the distance over [k_lo, k_hi] with k_lo > 0
    N = max(case["N"], 2)
    problem = _problem(case["d"], case["m"], N)
    batch = jb.simulate_paths(problem.grid, problem.marks, case["d"],
                              case["n"], case["seed"] % 1000)
    k_lo = data.draw(st.integers(1, N - 1))
    k_hi = data.draw(st.integers(k_lo + 1, N))
    rng = np.random.default_rng(case["seed"])
    a, b = (_solution(rng, problem, batch, k_lo, k_hi, case["coarse"])
            for _ in range(2))
    rep = _setup(problem, "mc", batch=batch)
    diffs = [x - y for x, y in zip(_arrays(a), _arrays(b))]
    _assert_same(rep.norms(case["q"], *_lazy_diff(a, b), k_lo=k_lo),
                 _ref_norms(problem, case["q"], *diffs))


@settings(max_examples=25, deadline=None)
@given(_cases(), st.sampled_from([0.1, 0.5, 1.0, 2.0, 8.0]))
def test_clamp_tail_bound_bit_for_bit(case, level):
    # d = m = 1 trees stay small at N <= 5; the batch takes the drawn sizes
    problem = _problem(case["d"], case["m"], case["N"])
    batch = jb.simulate_paths(problem.grid, problem.marks, case["d"],
                              case["n"], case["seed"] % 1000)
    rep = _setup(problem, "mc", batch=batch)
    _assert_same(_clamp_tail(rep, _data_levels(rep, problem), level),
                 _ref_tail_batch(problem, batch, level))
    for node_cap in (None, 10 ** 7):   # the marginal sum on both trees
        tree = jb.build_scenario_tree(problem.grid, problem.marks,
                                      case["d"], node_cap=node_cap)
        rep = _setup(problem, "tree", tree)
        _assert_same(_clamp_tail(rep, _data_levels(rep, problem), level),
                     _ref_tail_lattice(problem, tree, level))


def test_picard_solve_on_a_batch_matches_its_path_arrays():
    # a real solve: the recorded distances of the last iteration are the
    # path-array norms of the last two iterates
    problem = _problem(2, 2, 4)
    batch = jb.simulate_paths(problem.grid, problem.marks, 2, 400, 3)
    rep = _setup(problem, "mc", batch=batch)
    kw = {"tol": 0.0, "check_assumptions": False, "q": 1.5, "batch": batch}
    prev, _ = jb.picard_solve(problem, "mc", max_iter=2, **kw)
    cur, trace = jb.picard_solve(problem, "mc", max_iter=3, **kw)
    diffs = [x - y for x, y in zip(_arrays(cur), _arrays(prev))]
    _assert_same([trace.dy[-1], trace.dz[-1], trace.dv[-1]],
                 _ref_norms(problem, 1.5, *diffs))
    _assert_same(rep.norms(1.5, *_lazy_diff(cur, prev)),
                 _ref_norms(problem, 1.5, *diffs))
