"""The Picard meter takes each depth's difference before it is overwritten.

``_picard`` keeps one iterate; each sweep (``_backward``) hands the
representation's meter the differences new - old of one depth at a time,
just before it writes the new fields over the old, and never builds a second
or third (Y, Z, V) copy. ``norms`` reads through the same meter. The
reference here is the meter that materialised the difference: it builds the
three difference lists from two recorded iterates and reduces them with the
marginal sums (implicit lattice) or the path formulas (explicit tree, path
batch). Every recorded distance must match it bit for bit. The last tests
bound the memory an implicit-lattice solve and its lattice hold.
"""

import math
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest

import jumpbsde as jb
from jumpbsde import solver
from jumpbsde.errors import NumericError
from jumpbsde.norms import (ProcessSample, mp_from_sq, mp_norm, sp_from_sup,
                            sp_norm)
from jumpbsde.solver import Solution, _setup
from conftest import traced_peak


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


# ---------------------------------------------------------------------------
# the materialising reference
# ---------------------------------------------------------------------------

def _ref_lattice(problem, tree, q, y, z, v, k_lo):
    dt, lam = problem.grid.dt, problem.marks.intensities

    def mean(level, k):
        return float(np.einsum("n,n->", tree.state_probs(k_lo + k), level))

    sp = max(mean(np.abs(lev) ** q, k) ** (1 / q) for k, lev in enumerate(y))
    mp = math.sqrt(sum(mean(np.einsum("nd,nd->n", lev, lev), k) * dt
                       for k, lev in enumerate(z)))
    lp = sum(mean(np.einsum("nm,m->n", np.abs(lev) ** q, lam), k) * dt
             for k, lev in enumerate(v)) ** (1 / q)
    return sp, mp, lp


def _ref_tree(problem, tree, q, y, z, v, k_lo):
    _, idx, w = tree.enumerate_paths()

    def paths(levels):
        return np.stack([lev[idx[:, k_lo + k]] for k, lev in enumerate(levels)],
                        axis=1)

    grid, lam = problem.grid, problem.marks.intensities
    v_p = np.einsum("njm,m->n", np.abs(paths(v)) ** q, lam)
    return (sp_norm(ProcessSample(paths(y), grid, w), q),
            mp_norm(ProcessSample(paths(z), grid, w), q),
            float(np.einsum("n,n->", w, v_p) * grid.dt) ** (1 / q))


def _ref_batch(problem, batch, q, y, z, v, k_lo):
    y, z, v = (np.stack(f, axis=1) for f in (y, z, v))
    dt, w = problem.grid.dt, np.full(batch.n_paths, 1.0 / batch.n_paths)
    v_p = np.einsum("njm,m->n", np.abs(v) ** q, problem.marks.intensities)
    return (sp_from_sup(np.max(np.abs(y), axis=1), w, q),
            mp_from_sq(np.einsum("njd,njd->n", z, z) * dt, w, q),
            float(np.mean(v_p) * dt) ** (1 / q))


def _ref_norms(problem, sol, q, y, z, v, k_lo=0):
    if sol.kind == "paths":
        return _ref_batch(problem, sol.batch, q, y, z, v, k_lo)
    ref = _ref_tree if sol.tree.explicit else _ref_lattice
    return ref(problem, sol.tree, q, y, z, v, k_lo)


def _materialised(a, b):
    return [[x - y for x, y in zip(getattr(a, f), getattr(b, f))]
            for f in "yzv"]


def _assert_same(got, want):
    assert np.asarray(got).tobytes() == np.asarray(want).tobytes()


# ---------------------------------------------------------------------------
# recorded distances against the reference
# ---------------------------------------------------------------------------

INIT = (0.5, -0.25, 0.125)


def _copy(sol):
    return Solution(**{**vars(sol), **{f: [lev.copy() for lev in getattr(
        sol, f)] for f in "yzv"}})


def _metered(run):
    """``run()`` with every iterate ``_backward`` returns recorded, as
    (k_lo, copy of the solution) in call order: a Picard sweep overwrites
    its one iterate in place, so each is copied as the sweep returns."""
    seen, backward = [], solver._backward

    def spy(rep, problem, k_lo, *args, **kwargs):
        sol = backward(rep, problem, k_lo, *args, **kwargs)
        seen.append((k_lo, _copy(sol)))
        return sol

    with mock.patch.object(solver, "_backward", spy):
        return run(), seen


def _check_trace(problem, trace, iterates, k_lo):
    prev = SimpleNamespace(**{
        f: [np.full_like(lev, c) for lev in getattr(iterates[0], f)]
        for f, c in zip("yzv", INIT)})
    assert trace.n_iter == len(iterates) >= 2
    for i, cur in enumerate(iterates):
        want = _ref_norms(problem, cur, trace.q, *_materialised(cur, prev),
                          k_lo=k_lo)
        _assert_same([trace.dy[i], trace.dz[i], trace.dv[i]], want)
        prev = cur


@pytest.mark.parametrize("rep_name, method, d, m, N, node_cap", [
    ("_Lattice", "tree", 1, 1, 12, None),
    ("_Lattice", "tree", 2, 2, 5, None),
    ("_Tree", "tree", 1, 1, 5, 10 ** 7),
    ("_Tree", "tree", 2, 1, 4, 10 ** 7),
    ("_PathBatch", "mc", 2, 2, 5, None),
])
def test_picard_distances_match_materialised_meter(rep_name, method, d, m, N,
                                                   node_cap):
    problem = _problem(d, m, N)
    kw = {"tol": 0.0, "max_iter": 4, "q": 1.5, "init": INIT,
          "check_assumptions": False, "node_cap": node_cap, "n_paths": 400,
          "seed": 3}
    (sol, trace), seen = _metered(lambda: jb.picard_solve(problem, method,
                                                          **kw))
    rep = _setup(problem, method, sol.tree, sol.batch)
    assert type(rep).__name__ == rep_name
    _check_trace(problem, trace, [s for _, s in seen], 0)
    norms = jb.solution_norms(sol, problem, 1.5)
    _assert_same([norms["sp"], norms["mp"], norms["lp"]],
                 _ref_norms(problem, sol, 1.5, sol.y, sol.z, sol.v))


def test_batch_meter_reduces_chunks_of_paths_bit_for_bit(monkeypatch):
    # 400 paths in chunks of 64, the last one short: the per-path sums do
    # not depend on how the batch's walk view chunks the paths
    monkeypatch.setattr(solver._BatchSweep, "CHUNK_ROWS", 64)
    test_picard_distances_match_materialised_meter("_PathBatch", "mc", 2, 2,
                                                   5, None)


@pytest.mark.parametrize("method, node_cap", [
    ("tree", None), ("tree", 10 ** 7), ("mc", None)],
    ids=["lattice", "tree", "batch"])
def test_chained_distances_match_materialised_meter(method, node_cap):
    # each interval but the first meters a sub-range with k_lo > 0
    problem = _problem(1, 1, 6)
    plan = jb.SubdivisionPlan(np.linspace(0.0, 1.0, 4), 1.5, 0.5, 1.0, 0.5,
                              0.0)
    kw = {"tol": 0.0, "max_iter": 3, "q": 1.5, "init": INIT,
          "node_cap": node_cap, "n_paths": 300, "seed": 5}
    (_, traces), seen = _metered(lambda: jb.chained_solve(problem, plan,
                                                          method, **kw))
    assert [k_lo for k_lo, _ in seen] == [4] * 3 + [2] * 3 + [0] * 3
    for i, trace in enumerate(traces):
        _check_trace(problem, trace, [s for _, s in seen[3 * i:3 * i + 3]],
                     4 - 2 * i)


def test_chained_batch_meter_allocates_the_depths_it_reads():
    # each interval's meter holds that interval's (Z, V) depths, 4 of the
    # 12, not the depths from its start to N
    problem = _problem(1, 1, 12)
    plan = jb.SubdivisionPlan(np.linspace(0.0, 1.0, 4), 1.5, 0.5, 1.0, 0.5,
                              0.0)
    held, mp_lp = [], solver._BatchMeter._mp_lp

    def spy(self):
        # the depths of the Z levels, then of the V levels, reduced
        held.extend(sorted(levels) for levels in self.levels)
        return mp_lp(self)

    with mock.patch.object(solver._BatchMeter, "_mp_lp", spy):
        jb.chained_solve(problem, plan, "mc", tol=0.0, max_iter=2,
                         n_paths=300, seed=5)
    assert held == [list(range(k_lo, k_lo + 4))
                    for k_lo in (8, 4, 0) for _ in range(2 * 2)]


@pytest.mark.parametrize("field", ["y", "z", "v"])
@pytest.mark.parametrize("method, node_cap", [
    ("tree", None), ("tree", 10 ** 7), ("mc", None)],
    ids=["lattice", "tree", "batch"])
def test_non_finite_difference_raises(method, node_cap, field):
    problem = _problem(1, 1, 4)
    rep = _setup(problem, method, node_cap=node_cap, n_paths=200)
    sol, _ = solver._picard(rep, problem, max_iter=2)
    other = Solution(**{**vars(sol), field: [lev.copy()
                                             for lev in getattr(sol, field)]})
    getattr(other, field)[1][0] = np.inf

    def lazy(f):
        return map(np.subtract, getattr(sol, f), getattr(other, f))

    with pytest.raises(NumericError, match="not finite"):
        rep.norms(1.5, *map(lazy, "yzv"))
    if field == "y":    # the uniqueness and class-D distances read Y only
        for meter in (lambda y: rep.sup_norm(y, 1.5), rep.class_d):
            with pytest.raises(NumericError, match="not finite"):
                meter(lazy("y"))


# ---------------------------------------------------------------------------
# memory
# ---------------------------------------------------------------------------

def test_lattice_solve_holds_two_iterates_and_a_compact_lattice():
    # the meter holds one depth's difference beside the two iterates, and
    # the lattice keeps per state only its probability; per depth it keeps
    # its jump rows (uint8 counts, R_k = C(k+m, m) of them), their intp map
    # to the next depth's rows and a few small objects
    problem = _problem(1, 1, 80)
    tree, kept, _ = traced_peak(jb.build_scenario_tree, problem.grid,
                                problem.marks, 1, node_cap=None)
    m, depths = 1, range(81)
    states = sum(tree.n_states(k) for k in depths)
    rows = sum(math.comb(k + m, m) for k in depths)
    assert kept <= 8 * states + (m + 8 * (1 + m)) * rows + 2048 * len(depths)
    (sol, trace), _, peak = traced_peak(jb.picard_solve, problem, "tree",
                                        tree=tree, check_assumptions=False)
    assert trace.converged
    one = sum(lev.nbytes for f in (sol.y, sol.z, sol.v) for lev in f)
    assert peak <= 2.25 * one


def test_lattice_picard_holds_one_iterate():
    # the sweep overwrites its one iterate in place: beside it, only one
    # depth's projections and differences and the meter's scalars are live
    problem = _problem(1, 1, 80)
    tree = jb.build_scenario_tree(problem.grid, problem.marks, 1,
                                  node_cap=None)
    (sol, trace), _, peak = traced_peak(jb.picard_solve, problem, "tree",
                                        tree=tree, check_assumptions=False)
    assert trace.converged
    one = sum(lev.nbytes for f in (sol.y, sol.z, sol.v) for lev in f)
    assert peak <= 1.35 * one
