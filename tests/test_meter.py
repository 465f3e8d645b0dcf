"""The Picard meter takes each depth's difference before it is overwritten.

``_picard`` keeps one iterate; each sweep (``_backward``) hands the
representation's meter the differences new - old of one depth at a time,
just before it writes the new fields over the old, and never builds a second
or third (Y, Z, V) copy. ``norms`` reads through the same meter. The
reference here is the meter that materialised the difference: it builds the
three difference lists from two recorded iterates and reduces them with the
marginal sums (implicit lattice) or the path formulas (explicit tree, path
batch). Every recorded distance must match it bit for bit, also where the
explicit-tree meter reduces only up to each field's live depth (the last
depth whose difference is nonzero); spies count the prefix rows it reduces.
The last tests bound the memory an implicit-lattice solve and its lattice
hold.
"""

import math
import pathlib
import sys
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest

import jumpbsde as jb
from jumpbsde import cli, solver
from jumpbsde.errors import NumericError
from jumpbsde.estimates import solution_functionals
from jumpbsde.solver import Solution, _setup
from conftest import assert_same, traced_peak
from reference import (batch_norms, enumerate_paths, iterate_fields,
                       path_table, tree_norms)

PERFBENCH = pathlib.Path(__file__).resolve().parents[1] / "perfbench"
sys.path.insert(0, str(PERFBENCH))

import workloads  # noqa: E402


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


def _ref_norms(problem, sol, q, y, z, v, k_lo=0):
    if sol.kind == "paths":
        return batch_norms(problem, q,
                           *(np.stack(f, axis=1) for f in (y, z, v)))
    ref = tree_norms if sol.tree.explicit else _ref_lattice
    return ref(problem, sol.tree, q, y, z, v, k_lo)


def _materialised(a, b):
    return [[x - y for x, y in zip(getattr(a, f), getattr(b, f))]
            for f in "yzv"]


# ---------------------------------------------------------------------------
# recorded distances against the reference
# ---------------------------------------------------------------------------

INIT = (0.5, -0.25, 0.125)


def _metered(run):
    """``run()`` with the iterate of every ``_backward`` sweep recorded, as
    (k_lo, copy of the solution) in call order: a Picard sweep overwrites
    its one iterate in place, so each is copied, its (Z, V) read through
    the representation (``iterate_fields``), as the sweep returns."""
    seen, backward = [], solver._backward

    def spy(rep, problem, k_lo, *args, iterate, **kwargs):
        backward(rep, problem, k_lo, *args, iterate=iterate, **kwargs)
        y, z, v = iterate_fields(rep, iterate, k_lo)
        seen.append((k_lo, Solution(
            kind=rep.kind, grid=problem.grid, fingerprint="", y0=0.0,
            tree=rep.tree, batch=rep.batch, y=y, z=z, v=v)))

    with mock.patch.object(solver, "_backward", spy):
        return run(), seen


def _start(iterate, init=INIT):
    """The constant Picard start ``init`` on the layout of ``iterate``."""
    return SimpleNamespace(**{
        f: [np.full_like(lev, c) for lev in getattr(iterate, f)]
        for f, c in zip("yzv", init)})


def _check_trace(problem, trace, iterates, k_lo, init=INIT):
    prev = _start(iterates[0], init)
    assert trace.n_iter == len(iterates) >= 2
    for i, cur in enumerate(iterates):
        want = _ref_norms(problem, cur, trace.q, *_materialised(cur, prev),
                          k_lo=k_lo)
        assert_same([trace.dy[i], trace.dz[i], trace.dv[i]], want)
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
    assert_same([norms["sp"], norms["mp"], norms["lp"]],
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


def test_chained_batch_solve_joins_the_pieces_in_place():
    # the chained solution holds its intervals' own levels: joining them
    # allocates no whole (Y, Z, V) beside the pieces, which at n = 4000 and
    # N = 20 took about 1.96 MB
    problem, n = _problem(1, 1, 20), 4000
    plan = jb.SubdivisionPlan(np.linspace(0.0, 1.0, 5), 1.5, 0.5, 1.0, 0.5,
                              0.0)
    join, peaks = solver._join, []

    def traced_join(rep, problem, pieces):
        out, _, peak = traced_peak(join, rep, problem, pieces)
        peaks.append(peak)
        assert all(a is b for a, b in zip(
            out.y, [y for _, piece in pieces for y in piece.y[:-1]]))
        return out

    with mock.patch.object(solver, "_join", traced_join):
        sol, traces = jb.chained_solve(problem, plan, "mc", tol=0.0,
                                       max_iter=2, n_paths=n, seed=5)
    assert len(traces) == 4 and len(peaks) == 1
    assert (len(sol.y), len(sol.z), len(sol.v)) == (21, 20, 20)
    assert peaks[0] < 8 * n


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
# the live depth: explicit-tree sweeps reduce prefixes up to the last depth
# whose difference is nonzero
# ---------------------------------------------------------------------------

def _live_depth(levels, k_lo):
    """The last depth whose level has a nonzero entry (k_lo if none)."""
    nonzero = [k for k, lev in enumerate(levels, k_lo) if np.any(lev)]
    return max(nonzero, default=k_lo)


def _live_depths(iterates, k_lo):
    """Per sweep from ``INIT``, the live depths of its (Y, Z, V)
    differences."""
    prev, out = _start(iterates[0]), []
    for cur in iterates:
        out.append(tuple(_live_depth(levels, k_lo)
                         for levels in _materialised(cur, prev)))
        prev = cur
    return out


def _reduced_rows(run):
    """``run()`` with the size of every per-prefix vector the leaf sweep's
    ``fold`` and ``row_reduce`` return recorded, as (name, rows) in call
    order: the rows of prefixes each reduction ran over."""
    rows = []

    def spy(name):
        method = getattr(solver._LeafSweep, name)

        def recorded(self, *args, **kwargs):
            out = method(self, *args, **kwargs)
            rows.append((name, out.size))
            return out
        return recorded

    with mock.patch.object(solver._LeafSweep, "fold", spy("fold")), \
            mock.patch.object(solver._LeafSweep, "row_reduce",
                              spy("row_reduce")):
        return run(), rows


@pytest.mark.parametrize("chunk_rows", [None, 16])
@pytest.mark.parametrize("d, m, N", [(1, 1, 6), (2, 1, 4)])
def test_converged_tree_distances_match_materialised_meter(
        monkeypatch, chunk_rows, d, m, N):
    # tol 0: the iteration runs until a sweep changes no bit, so the last
    # sweeps meter zero tails down to all-zero differences (one live depth);
    # with 16-row subtree blocks the live depth falls both within the root
    # block and below it
    if chunk_rows:
        monkeypatch.setattr(solver._LeafSweep, "CHUNK_ROWS", chunk_rows)
    problem = _problem(d, m, N)
    kw = {"tol": 0.0, "max_iter": 25, "q": 1.5, "init": INIT,
          "check_assumptions": False, "node_cap": 10 ** 7}
    (_, trace), seen = _metered(lambda: jb.picard_solve(problem, "tree",
                                                        **kw))
    assert trace.converged and trace.dist[-1] == 0.0
    iterates = [s for _, s in seen]
    live_y = [k for k, _, _ in _live_depths(iterates, 0)]
    assert live_y[0] == N and live_y[-1] == 0
    if chunk_rows:
        block = solver._LeafSweep(iterates[0].tree)._chunk_depth
        assert min(live_y) <= block < max(live_y)
    _check_trace(problem, trace, iterates, 0)


def test_converged_chained_tree_distances_match_materialised_meter():
    # each interval but the last to run meters a sub-range with k_lo > 0,
    # down to all-zero differences
    problem = _problem(1, 1, 6)
    plan = jb.SubdivisionPlan(np.linspace(0.0, 1.0, 4), 1.5, 0.5, 1.0, 0.5,
                              0.0)
    kw = {"tol": 0.0, "max_iter": 25, "q": 1.5, "init": INIT,
          "node_cap": 10 ** 7}
    (_, traces), seen = _metered(lambda: jb.chained_solve(problem, plan,
                                                          "tree", **kw))
    for trace, k_lo in zip(traces, (4, 2, 0)):
        assert trace.converged and trace.dist[-1] == 0.0
        iterates = [s for lo, s in seen if lo == k_lo]
        assert _live_depths(iterates, k_lo)[-1] == (k_lo,) * 3
        _check_trace(problem, trace, iterates, k_lo)


def test_meter_trims_a_zero_tail_holding_negative_zeros():
    # a level of -0.0 is no live depth: its squares and |.|^p are +0.0, so
    # the norms and the per-path functionals keep the path table's bits
    problem = _problem(2, 1, 4)
    rep = _setup(problem, "tree", node_cap=10 ** 7)
    n, rng = rep.n_states, np.random.default_rng(11)
    y = ([rng.standard_normal(n(k)) for k in range(3)]
         + [np.zeros(n(3)), np.full(n(4), -0.0)])
    z = ([rng.standard_normal((n(k), 2)) for k in range(2)]
         + [np.full((n(k), 2), -0.0) for k in (2, 3)])
    v = ([rng.standard_normal((n(k), 1)) for k in range(2)]
         + [np.full((n(2), 1), -0.0), np.zeros((n(3), 1))])
    z[1][0, 0] = v[1][-1, 0] = -0.0
    assert [rep.sweep.live(levels) for levels in (y, z, v)] == [3, 2, 2]
    assert_same(rep.norms(1.5, y, z, v),
                 tree_norms(problem, rep.tree, 1.5, y, z, v))
    _, idx, _ = enumerate_paths(rep.tree)
    zp, vp = (path_table(levels, idx) for levels in (z, v))
    got = solution_functionals(Solution(
        kind="tree", grid=problem.grid, fingerprint="", y0=0.0, tree=rep.tree,
        y=y, z=z, v=v), problem, 1.5)
    dt, lam = problem.grid.dt, problem.marks.intensities
    assert_same(got["int_z_sq"], np.einsum("njd,njd->n", zp, zp) * dt)
    assert_same(got["int_v_p"],
                 np.einsum("njm,m->n", np.abs(vp) ** 1.5, lam) * dt)
    assert_same(got["sup_abs_y"],
                 np.max(np.abs(path_table(y, idx)), axis=1))


def test_tree_sweeps_reduce_the_prefixes_at_their_live_depth():
    # per sweep the meter folds |dY| and sums |dZ|^2 and |dV|^p over the
    # b^K prefixes at each field's live depth K, not over the b^N leaves
    problem = _problem(1, 1, 6)
    kw = {"tol": 0.0, "max_iter": 25, "q": 1.5, "init": INIT,
          "check_assumptions": False, "node_cap": 10 ** 7}
    ((_, trace), seen), rows = _reduced_rows(lambda: _metered(
        lambda: jb.picard_solve(problem, "tree", **kw)))
    b = seen[0][1].tree.branching
    want = [(name, b ** k) for live in _live_depths([s for _, s in seen], 0)
            for name, k in zip(("fold", "row_reduce", "row_reduce"), live)]
    assert len(rows) == 3 * trace.n_iter
    assert rows == want


# ---------------------------------------------------------------------------
# the tree-verify benchmark workload's Picard runs
# ---------------------------------------------------------------------------

# the verify command's Picard starts: its solve, then the uniqueness
# experiment's second start
VERIFY_STARTS = [(0.0, 0.0, 0.0), (10.0, 1.0, 1.0)]


def _tree_verify_run(init):
    """The tree-verify workload's Picard solve from ``init``, with every
    iterate recorded (``_metered``): (problem, trace, iterates)."""
    _, raw = workloads.make_run("tree-verify", 0)
    cfg = cli.validate_config(raw)
    problem = cli._build_problem(cfg)
    tree = cli._context_for(cfg, problem)["tree"]
    pic = cfg["picard"]
    (_, trace), seen = _metered(lambda: jb.picard_solve(
        problem, cfg["method"], tree=tree, tol=pic["tol"],
        max_iter=pic["max_iter"], q=pic["q"], init=init,
        check_assumptions=False))
    return problem, trace, [s for _, s in seen]


@pytest.mark.parametrize("init", VERIFY_STARTS, ids=["solve", "second"])
def test_tree_verify_distances_match_materialised_meter(init):
    # the tree-verify report body holds no Picard distance, so a last-bit
    # change of the explicit-tree meter shows here, not in its body hash
    problem, trace, iterates = _tree_verify_run(init)
    assert trace.converged and problem.grid.steps == 9
    _check_trace(problem, trace, iterates, 0, init)


def test_tree_verify_folds_few_leaf_rows():
    # a host-independent guard against a silent return to full expansion:
    # on tree-verify the settled tail and the set terminal leave the |dY|
    # folds of its 9 + 8 sweeps 4^9 + 4^8 + ... rows, 699 044 of the
    # 17 * 4^9 leaf rows they would expand without the live depth (15.7%)
    folds, full = 0, 0
    for init in VERIFY_STARTS:
        (problem, trace, _), rows = _reduced_rows(
            lambda: _tree_verify_run(init))
        leaves = 4 ** problem.grid.steps
        fold_rows = [r for name, r in rows if name == "fold"]
        assert len(fold_rows) == trace.n_iter
        folds += sum(fold_rows)
        full += leaves * len(fold_rows)
    assert folds <= 0.16 * full


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


def test_batch_picard_keeps_z_and_v_as_coefficients():
    # through the sweeps a batch iterate keeps Y per depth and (Z, V) as each
    # step's coefficients: beside Y, the meter's Z and |V|^p levels and the
    # states and the design buffer the batch builds, only one chunk block
    # of the meter's reduction and per-step temporaries are live; per-path
    # (Z, V) arrays would add 2 N n floats
    n, N = 4000, 20
    problem = _problem(1, 1, N)
    batch = jb.simulate_paths(problem.grid, problem.marks, 1, n, 0)
    (sol, trace), _, peak = traced_peak(jb.picard_solve, problem, "mc",
                                        batch=batch)
    assert trace.converged
    y = sum(lev.nbytes for lev in sol.y)
    meter = 8 * (2 * N + 1) * n
    states = (N + 1) * n * (8 + 1)          # float64 values, uint8 counts
    design = 8 * n * len(solver._monomial_exponents(2, 2))
    block = 8 * min(n, solver._BatchSweep.CHUNK_ROWS) * N
    assert peak <= y + meter + states + design + block + 8 * 12 * n


def test_lattice_picard_holds_y_and_a_few_depth_blocks():
    # a lattice iterate is its Y levels: (Z_k, V_k) is projected from Y_{k+1}
    # when a step reads it, and only the step's projections, its driver rows
    # and one detached (Z, V) are live beside Y and the lattice the solve
    # builds; keeping (Z, V) at every state would add 2 N-depth fields, about
    # 10 blocks at N = 60
    N = 60
    problem = _problem(1, 1, N)
    (sol, trace), _, peak = traced_peak(jb.picard_solve, problem, "tree",
                                        node_cap=None,
                                        check_assumptions=False)
    assert trace.converged
    tree, depths = sol.tree, range(N + 1)
    y = sum(lev.nbytes for lev in sol.y)
    probs = sum(tree.state_probs(k).nbytes for k in depths)
    block = 8 * tree.branching * tree.n_states(N - 1)    # one step's gather
    assert peak <= y + probs + 6 * block


def test_batch_ladder_rungs_keep_y_and_expand_z_and_v_when_read():
    # a ladder reads only its rungs' Y; each rung solution keeps its Y levels
    # and its steps' coefficient entries, and beside them only the batch
    # representation the rungs share stays allocated (its states, design
    # buffer and path weights) and small objects per depth (entries, Grams,
    # array headers); per-path (Z, V) at every depth would add 2 N n floats
    # per rung
    n, N = 4000, 20
    problem = _problem(1, 1, N)
    batch = jb.simulate_paths(problem.grid, problem.marks, 1, n, 0)
    ladder, kept, _ = traced_peak(jb.truncation_ladder_solve, problem,
                                  [1.0, 4.0, 16.0], "mc", batch=batch)
    y = sum(lev.nbytes for sol in ladder.solutions for lev in sol.y)
    states = (N + 1) * n * (8 + 1)          # float64 values, uint8 counts
    design = 8 * n * len(solver._monomial_exponents(2, 2))
    assert kept <= y + states + design + 8 * n + 8192 * (N + 1)
    # a read expands the depth's entry on the rungs' shared representation,
    # with the bits of a direct expansion, into compact read-only arrays
    sol = ladder.solutions[1]
    rep = solver._represent(sol, problem)
    assert rep is ladder.solutions[0].z.rep
    for j in (0, 1, N // 2, N - 1):
        z, v = rep.expand(sol.z.sources[j], j)
        for got, want in ((sol.z[j], z), (sol.v[j], v)):
            assert_same(got, want)
            assert got.base is None and not got.flags.writeable
    assert np.stack(sol.z, axis=1).shape == (n, N, 1)
