"""Driving-noise simulation and the scenario tree."""

import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import jumpbsde as jb
from jumpbsde.errors import ResourceLimitError
from jumpbsde.randomness import ScenarioTree
from conftest import traced_peak
from reference import enumerate_paths, state_paths
from test_meter import _problem


# ---------------------------------------------------------------------------
# grids and marks
# ---------------------------------------------------------------------------

def test_make_time_grid_single_step():
    grid = jb.make_time_grid(1.0, 1)
    assert np.array_equal(grid.nodes, [0.0, 1.0])


def test_make_time_grid_quarters():
    grid = jb.make_time_grid(2.0, 4)
    assert np.array_equal(grid.nodes, [0.0, 0.5, 1.0, 1.5, 2.0])
    assert grid.nodes[-1] == 2.0


@pytest.mark.parametrize("T,N", [(1.0, 0), (0.0, 4), (-1.0, 4), (np.inf, 4)])
def test_make_time_grid_rejects(T, N):
    with pytest.raises(ValueError):
        jb.make_time_grid(T, N)


def test_mark_space_rejects_degenerate():
    with pytest.raises(ValueError):
        jb.make_mark_space([], [])
    with pytest.raises(ValueError):
        jb.make_mark_space([[0.0]], [1.0])        # zero vector not a mark
    with pytest.raises(ValueError):
        jb.make_mark_space([[1.0]], [0.0])        # lambda must be > 0
    with pytest.raises(ValueError):
        jb.make_mark_space([[1.0], [2.0]], [1.0])  # length mismatch


def test_mark_space_totals(two_marks):
    assert two_marks.m == 2
    assert two_marks.total_intensity == 4.0
    # sectional norm: (sum |v|^p lambda)^1/p
    assert np.isclose(two_marks.section_norm([1.0, 1.0], 2.0), 2.0)


# ---------------------------------------------------------------------------
# Brownian simulation
# ---------------------------------------------------------------------------

def test_brownian_deterministic(unit_grid):
    a = jb.simulate_brownian(unit_grid, 1, 100, seed=42)
    b = jb.simulate_brownian(unit_grid, 1, 100, seed=42)
    assert np.array_equal(a.brownian_increments, b.brownian_increments)


def test_brownian_prefix_property(unit_grid):
    small = jb.simulate_brownian(unit_grid, 2, 50, seed=5)
    large = jb.simulate_brownian(unit_grid, 2, 500, seed=5)
    assert np.array_equal(small.brownian_increments,
                          large.brownian_increments[:50])


def test_brownian_path_range_concatenation(unit_grid):
    whole = jb.simulate_brownian(unit_grid, 1, 80, seed=3)
    lo = jb.simulate_brownian(unit_grid, 1, 30, seed=3, path_start=0)
    hi = jb.simulate_brownian(unit_grid, 1, 50, seed=3, path_start=30)
    assert np.array_equal(
        whole.brownian_increments,
        np.concatenate([lo.brownian_increments, hi.brownian_increments]))


def test_brownian_moments():
    # N=1: increment ~ Normal(0, dt); CLT band on the mean, 5% on the variance
    grid = jb.make_time_grid(1.0, 1)
    batch = jb.simulate_brownian(grid, 1, 100_000, seed=7)
    inc = batch.brownian_increments[:, 0, 0]
    dt = grid.dt
    assert abs(inc.mean()) < 4 * math.sqrt(dt / inc.size)
    assert abs(inc.var() - dt) < 0.05 * dt


def test_brownian_rejects_bad_args(unit_grid):
    with pytest.raises(ValueError):
        jb.simulate_brownian(unit_grid, 0, 10, seed=1)
    with pytest.raises(ValueError):
        jb.simulate_brownian(unit_grid, 1, 0, seed=1)
    with pytest.raises(ValueError):
        jb.simulate_brownian(unit_grid, 1, 10, seed=1.5)


# ---------------------------------------------------------------------------
# Poisson measure simulation
# ---------------------------------------------------------------------------

def test_poisson_rejects_empty_marks(unit_grid):
    with pytest.raises(ValueError):
        jb.simulate_poisson_measure(unit_grid, None, 10, seed=1)
    with pytest.raises(ValueError):
        jb.make_mark_space([], [])


def test_poisson_mean_count(unit_grid, single_mark):
    # rate 2 on (0,1]: mean count within 4*sqrt(2/n)
    batch = jb.simulate_poisson_measure(unit_grid, single_mark, 100_000, seed=7)
    counts, _ = batch.jump_counts()
    assert abs(counts.mean() - 2.0) < 4 * math.sqrt(2.0 / counts.size)
    assert abs(counts.var() - 2.0) < 0.05 * 2.0


def test_poisson_mark_fractions(unit_grid, two_marks):
    # lambda = (1, 3): mark-2 fraction within 2% of 0.75
    batch = jb.simulate_poisson_measure(unit_grid, two_marks, 100_000, seed=11)
    frac = (batch.jump_mark_idx == 1).mean()
    assert abs(frac - 0.75) < 0.02 * 0.75


def test_poisson_times_sorted_in_range(unit_grid, single_mark):
    batch = jb.simulate_poisson_measure(unit_grid, single_mark, 1000, seed=3)
    for k in range(0, 1000, 97):
        events = batch.jump_events(k)
        times = [t for t, _ in events]
        assert times == sorted(times)
        assert all(0.0 < t <= 1.0 for t in times)


def test_poisson_deterministic(unit_grid, single_mark):
    a = jb.simulate_poisson_measure(unit_grid, single_mark, 500, seed=9)
    b = jb.simulate_poisson_measure(unit_grid, single_mark, 500, seed=9)
    assert np.array_equal(a.jump_times, b.jump_times)
    assert np.array_equal(a.jump_mark_idx, b.jump_mark_idx)
    # per-path events are independent of the batch size
    big = jb.simulate_poisson_measure(unit_grid, single_mark, 2000, seed=9)
    for k in (0, 17, 499):
        assert a.jump_events(k) == big.jump_events(k)


def test_state_paths_counts(unit_grid, single_mark):
    batch = jb.simulate_paths(unit_grid, single_mark, 1, 200, seed=21)
    bvals, counts = state_paths(batch)
    total, per_mark = batch.jump_counts()
    assert np.array_equal(counts[:, -1, 0], per_mark[:, 0].astype(float))
    assert np.allclose(bvals[:, -1, 0],
                       batch.brownian_increments[:, :, 0].sum(axis=1))


# ---------------------------------------------------------------------------
# scenario tree
# ---------------------------------------------------------------------------

def test_tree_single_step_leaf_probabilities():
    grid = jb.make_time_grid(1.0, 1)
    marks = jb.make_mark_space([[1.0]], [1.0])
    tree = jb.build_scenario_tree(grid, marks, 1)
    probs = sorted(tree.walks[1])
    e = math.exp(-1.0)
    expected = sorted([0.5 * e, 0.5 * e, 0.5 * (1 - e), 0.5 * (1 - e)])
    assert np.allclose(probs, expected, atol=1e-15)
    assert abs(sum(probs) - 1.0) < 1e-12


def test_tree_two_steps_sixteen_leaves():
    grid = jb.make_time_grid(1.0, 2)
    marks = jb.make_mark_space([[1.0]], [1.0])
    tree = jb.build_scenario_tree(grid, marks, 1)
    leaf_probs = tree.walks[1]
    assert leaf_probs.size == 16
    assert abs(leaf_probs.sum() - 1.0) < 1e-12


def test_tree_depth_probabilities_sum_to_one():
    grid = jb.make_time_grid(1.0, 6)
    marks = jb.make_mark_space([[1.0], [2.0]], [1.0, 0.5])
    tree = jb.build_scenario_tree(grid, marks, 1)
    for k in range(7):
        assert abs(tree.state_probs(k).sum() - 1.0) < 1e-12
    assert abs(tree.walks[1].sum() - 1.0) < 1e-12


def test_tree_node_cap():
    grid = jb.make_time_grid(1.0, 3)
    marks = jb.make_mark_space([[1.0, 0.0], [0.0, 1.0]], [1.0, 1.0])
    with pytest.raises(ResourceLimitError, match="100"):
        jb.build_scenario_tree(grid, marks, 2, node_cap=100)  # (4*3)^3 = 1728


def test_tree_implicit_mode_blocks_enumeration():
    grid = jb.make_time_grid(1.0, 40)
    marks = jb.make_mark_space([[1.0]], [1.0])
    tree = jb.build_scenario_tree(grid, marks, 1, node_cap=None)
    assert not tree.explicit
    with pytest.raises(ResourceLimitError):
        tree.walks


def test_tree_one_jump_bias_first_order():
    # linear problem: E[count] under the tree vs Lambda*T; halving dt must
    # cut the bias by ~2 (the at-most-one-jump lumping is O(dt^2) per step)
    marks = jb.make_mark_space([[1.0]], [2.0])
    errs = []
    for N in (8, 16):
        grid = jb.make_time_grid(1.0, N)
        tree = jb.build_scenario_tree(grid, marks, 1, node_cap=None)
        counts = tree.levels[N].jump_counts[:, 0].astype(float)
        mean_count = float(np.einsum("n,n->", tree.state_probs(N), counts))
        errs.append(abs(mean_count - 2.0))
    assert 1.7 <= errs[0] / errs[1] <= 2.3


def test_tree_expectation_helper(single_mark):
    grid = jb.make_time_grid(1.0, 4)
    tree = jb.build_scenario_tree(grid, single_mark, 1)
    # E[B_k] = 0 and E[B_k^2] = t_k, exactly on the lattice
    for k in (1, 2, 4):
        b = tree.brownian_values(k)[:, 0]
        probs = tree.state_probs(k)
        assert abs(float(np.einsum("n,n->", probs, b))) < 1e-14
        assert abs(float(np.einsum("n,n->", probs, b * b))
                   - grid.nodes[k]) < 1e-13


def test_branch_probabilities_sum_to_one_where_the_largest_overshoots():
    # correcting the largest weight steps the sum over 1 and back; another
    # weight takes the correction (this config used to raise AssertionError)
    grid = jb.make_time_grid(3.0, 1)
    marks = jb.make_mark_space([[1.0], [2.0], [3.0]],
                               [1.0, 0.05, 1.2265415699282687])
    tree = jb.build_scenario_tree(grid, marks, 1)
    ones = np.ones((1, tree.branching))
    assert float(np.einsum("nb,b->n", ones, tree.branch_probs)[0]) == 1.0


class _TableTree(ScenarioTree):
    """A lattice that reads a level at the children through stored int64
    child tables, the layout the grid of jump rows and up-count cubes
    replaced."""

    def __init__(self, tree, levels, tables):
        super().__init__(tree.grid, tree.marks, tree.d, tree.node_cap,
                         tree.sign_vectors, tree.branch_jump,
                         tree.branch_probs, levels)
        self.tables = tables

    def child_table(self, k):
        return self.tables[k]

    def gather_children(self, k, values):
        return values[self.tables[k]]


def _unique_build(tree):
    """The lattice of ``tree`` as ``np.unique`` over each depth's child codes
    builds it: the reference the grid build must reproduce."""
    N, d, m, b = tree.grid.steps, tree.d, tree.marks.m, tree.branching
    base = N + 1
    place = (base ** np.arange(d + m, dtype=object)).astype(np.int64)
    up_inc = ((tree.sign_vectors + 1.0) / 2.0).astype(np.int64)
    jump_inc = np.zeros((b, m), dtype=np.int64)
    has_jump = tree.branch_jump >= 0
    jump_inc[has_jump, tree.branch_jump[has_jump]] = 1
    offsets = up_inc @ place[:d] + jump_inc @ place[d:]
    codes, probs = np.zeros(1, dtype=np.int64), np.ones(1)
    levels = [SimpleNamespace(codes=codes, up_counts=np.zeros((1, d)),
                              jump_counts=np.zeros((1, m)), probs=probs)]
    children = []
    for _ in range(N):
        child_codes = codes[:, None] + offsets[None, :]
        codes, inverse = np.unique(child_codes, return_inverse=True)
        child_idx = inverse.reshape(child_codes.shape).astype(np.int64)
        probs = np.bincount(
            child_idx.ravel(),
            weights=(probs[:, None] * tree.branch_probs[None, :]).ravel(),
            minlength=codes.size)
        digits = (codes[:, None] // place) % base
        levels.append(SimpleNamespace(codes=codes, up_counts=digits[:, :d],
                                      jump_counts=digits[:, d:], probs=probs))
        children.append(child_idx)
    return _TableTree(tree, levels, children)


def _assert_same_lattice(d, m, N, intensities, horizon=1.0):
    grid = jb.make_time_grid(horizon, N)
    marks = jb.make_mark_space([[1.0 + i] for i in range(m)], intensities)
    b = 2 ** d * (1 + m)
    node_cap = 4096 if b ** N <= 4096 else None
    tree = jb.build_scenario_tree(grid, marks, d, node_cap=node_cap)
    ref = _unique_build(tree)
    for k in range(N + 1):
        got, want = tree.levels[k], ref.levels[k]
        assert tree.n_states(k) == ref.n_states(k) == want.codes.size
        assert np.array_equal(got.codes, want.codes)
        assert np.array_equal(got.up_counts, want.up_counts)
        assert np.array_equal(got.jump_counts, want.jump_counts)
        assert (got.up_counts.dtype == got.jump_counts.dtype
                == np.min_scalar_type(N))
        assert got.probs.tobytes() == want.probs.tobytes()
        # per state only the probability; per jump row its counts and its
        # rows at depth k+1
        n_rows = math.comb(k + m, m)
        assert got.probs.shape == (n_rows * (k + 1) ** d,)
        assert got.rows.shape == (n_rows, m)
        assert (got.next_rows is None if k == N
                else got.next_rows.shape == (n_rows, 1 + m))
    for k in range(N):
        table = tree.child_table(k)
        assert table.dtype == np.intp and table.flags.c_contiguous
        assert np.array_equal(table, ref.child_table(k))
        values = np.arange(tree.n_states(k + 1)) * 0.5 - 1.0
        gathered = tree.gather_children(k, values)
        assert gathered.flags.c_contiguous
        assert gathered.tobytes() == ref.gather_children(k, values).tobytes()
    for name in ("sign_vectors", "branch_jump", "branch_probs"):
        assert np.array_equal(getattr(tree, name), getattr(ref, name))
    assert tree.explicit == (b ** N <= 4096)
    if tree.explicit:
        for got, want in zip(enumerate_paths(tree), enumerate_paths(ref),
                             strict=True):
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


@settings(max_examples=45, deadline=None)
@given(st.sampled_from([1, 2, 3]), st.sampled_from([1, 2, 3]), st.data())
def test_lattice_build_matches_unique_reference(d, m, data):
    # each depth is a grid of jump rows times the up-count cube, filled by
    # slice-adds; the states, children and probabilities are those np.unique
    # gives over the child codes (N up to 6 for d = 3 keeps the reference
    # build small)
    N = data.draw(st.integers(1, 10 if d <= 2 else 6))
    intensities = data.draw(st.lists(st.floats(0.05, 4.0), min_size=m,
                                     max_size=m))
    horizon = data.draw(st.sampled_from([0.25, 1.0, 3.0]))
    _assert_same_lattice(d, m, N, intensities, horizon)


@pytest.mark.parametrize("d, m, N", [
    (1, 1, 150), (1, 1, 6), (2, 1, 4), (2, 1, 8), (1, 2, 9), (2, 2, 6),
    (1, 3, 7), (3, 1, 3), (1, 3, 4), (3, 3, 4),
], ids=["long-lattice", "tree-1-1", "tree-2-1", "lattice-2-1", "lattice-1-2",
        "lattice-2-2", "lattice-1-3", "tree-3-1", "tree-1-3", "lattice-3-3"])
def test_lattice_build_matches_unique_reference_examples(d, m, N):
    # a long lattice, lattices over every (d, m) up to 3, and explicit trees
    # whose histories are compared
    _assert_same_lattice(d, m, N, [0.7 + 0.6 * i for i in range(m)])


def test_lattice_build_transient_memory_is_a_few_children_arrays():
    # beside the lattice it keeps, the build holds at most three grids of
    # the last depth's size in temporaries: the grid it fills, one jump
    # outcome's gathered slice and the weighted parent grid
    grid = jb.make_time_grid(1.0, 16)
    marks = jb.make_mark_space([[1.0], [2.0]], [0.7, 1.3])
    tree, kept, peak = traced_peak(jb.build_scenario_tree, grid, marks, 2,
                                   node_cap=None)
    assert peak - kept <= 3 * 8 * tree.n_states(16)


def _gathered_tree(tree):
    """``tree`` read through int64 copies of its child tables: the fancy
    gathers the grid's slice copies replaced."""
    return _TableTree(tree, tree.levels,
                      [tree.child_table(k).astype(np.int64)
                       for k in range(tree.grid.steps)])


def _assert_same_solve(problem, tree):
    # a Picard solve reads the grid's slices as the table gathers, bit for
    # bit
    runs = [jb.picard_solve(problem, "tree", tree=t, tol=0.0, max_iter=4,
                            check_assumptions=False)
            for t in (tree, _gathered_tree(tree))]
    (sol, trace), (ref, ref_trace) = runs
    for f in "yzv":
        for got, want in zip(getattr(sol, f), getattr(ref, f), strict=True):
            assert got.tobytes() == want.tobytes()
    assert repr(trace.to_json_dict()) == repr(ref_trace.to_json_dict())
    return sol, ref


@pytest.mark.parametrize("d, m, N", [(1, 1, 20), (2, 2, 5)])
def test_grid_slices_solve_the_lattice_bit_for_bit(d, m, N):
    problem = _problem(d, m, N)
    tree = jb.build_scenario_tree(problem.grid, problem.marks, d,
                                  node_cap=None)
    assert not tree.explicit
    _assert_same_solve(problem, tree)


def test_grid_slices_on_an_explicit_tree():
    # the leaf sweep, path enumeration and the branch residual read the
    # grid as the table gathers; 12^4 leaves
    problem = _problem(2, 2, 4)
    tree = jb.build_scenario_tree(problem.grid, problem.marks, 2)
    assert tree.explicit
    sol, ref = _assert_same_solve(problem, tree)
    assert (repr(jb.solution_norms(sol, problem))
            == repr(jb.solution_norms(ref, problem)))
    for got, want in zip(enumerate_paths(tree),
                         enumerate_paths(_gathered_tree(tree)), strict=True):
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
    assert (jb.bsde_residual_max(sol, problem).hex()
            == jb.bsde_residual_max(ref, problem).hex())


def test_merge_batches_rejects_mismatch(unit_grid, single_mark):
    bm = jb.simulate_brownian(unit_grid, 1, 10, seed=1)
    other_grid = jb.make_time_grid(1.0, 5)
    jp = jb.simulate_poisson_measure(other_grid, single_mark, 10, seed=1)
    with pytest.raises(ValueError):
        jb.merge_batches(bm, jp)
    jp2 = jb.simulate_poisson_measure(unit_grid, single_mark, 20, seed=1)
    with pytest.raises(ValueError):
        jb.merge_batches(bm, jp2)
