"""Driving-noise simulation and the scenario tree."""

import math
import weakref
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import jumpbsde as jb
from jumpbsde import randomness, rng
from jumpbsde.errors import ResourceLimitError
from jumpbsde.randomness import CHECKPOINT_STRIDE, ScenarioTree, _Checkpoints
from conftest import traced_peak
from reference import enumerate_paths, poisson_measure, state_paths
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


@settings(max_examples=25, deadline=None)
@given(st.sampled_from([(0.5, 1.0), (2.0, 1.0), (3.0, 2.5), (0.05, 4.0)]),
       st.integers(1, 300), st.integers(0, 2 ** 31), st.integers(0, 10 ** 6),
       st.integers(1, 4))
def test_poisson_matches_the_every_path_draw_reference(rates, n, seed, start,
                                                       chunks):
    # byte for byte the batch that draws every path's gap in every round,
    # also in consecutive path_start chunks
    lam, horizon = rates
    grid = jb.make_time_grid(horizon, 7)
    marks = jb.make_mark_space([[1.0], [2.0]], [lam, 2.0 * lam])
    cuts = np.linspace(0, n, chunks + 1).astype(int)
    for lo, hi in zip(cuts, cuts[1:]):
        if hi == lo:
            continue
        batch = jb.simulate_poisson_measure(grid, marks, int(hi - lo), seed,
                                            path_start=start + int(lo))
        got = (batch.jump_times, batch.jump_mark_idx, batch.jump_offsets,
               batch.jump_steps)
        for a, b in zip(got, poisson_measure(grid, marks, int(hi - lo), seed,
                                             start + int(lo))):
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()


def test_poisson_draws_one_gap_more_than_each_path_has_events(
        unit_grid, single_mark, monkeypatch):
    # gap g of a path is drawn only while its first g events lie in (0, T]
    draws = {rng.STREAM_JUMP_GAP: 0, rng.STREAM_JUMP_MARK: 0}
    uniform = rng.uniform

    def counted(seed, stream, path, slot):
        out = uniform(seed, stream, path, slot)
        draws[stream] += out.size
        return out

    monkeypatch.setattr(rng, "uniform", counted)
    batch = jb.simulate_poisson_measure(unit_grid, single_mark, 5000, seed=4)
    events = batch.jump_times.size
    assert draws[rng.STREAM_JUMP_MARK] == events
    assert draws[rng.STREAM_JUMP_GAP] <= events + 5000


def test_a_batch_over_the_event_cap_raises_before_any_draw(monkeypatch):
    # Lambda*T*n_paths = 2e7 expected jump events, twice the cap
    def draw(*args):
        raise AssertionError("a variate was drawn")

    monkeypatch.setattr(jb.randomness.rng, "uniform", draw)
    monkeypatch.setattr(jb.randomness.rng, "normal", draw)
    grid, marks = jb.make_time_grid(1e5, 4), jb.make_mark_space([[1.0]], [2.0])
    with pytest.raises(ResourceLimitError, match="2e\\+07 jump events, above "
                       "the event cap 10000000") as info:
        jb.simulate_paths(grid, marks, 1, 100, seed=0)
    assert info.value.setting == "n_paths"


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
    replaced; its state probabilities are ``tree``'s."""

    def __init__(self, tree, levels, tables):
        super().__init__(tree.grid, tree.marks, tree.d, tree.node_cap,
                         tree.sign_vectors, tree.branch_jump,
                         tree.branch_probs, levels, tree._probs)
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
                              jump_counts=np.zeros((1, m)), probs=probs,
                              size=1)]
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
                                      jump_counts=digits[:, d:], probs=probs,
                                      size=codes.size))
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
        probs = tree.state_probs(k)
        assert probs.tobytes() == want.probs.tobytes()
        # per state only the probability; per jump row its counts and its
        # rows at depth k+1
        n_rows = math.comb(k + m, m)
        assert probs.shape == (n_rows * (k + 1) ** d,)
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
    # the build keeps the jump-row tables and the probabilities at the
    # checkpoint depths (0 and 12 here); beside them it holds the last
    # step's input and output grids, a scratch of two output grids (the
    # zero-padded input and one branch's products) and one gathered row
    # block. The bound, about 2.2 MB here, is below the one the build that
    # kept every depth's probabilities had to meet (those probabilities plus
    # 3 grids of the last depth: about 2.5 MB)
    grid = jb.make_time_grid(1.0, 16)
    marks = jb.make_mark_space([[1.0], [2.0]], [0.7, 1.3])
    tree, kept, peak = traced_peak(jb.build_scenario_tree, grid, marks, 2,
                                   node_cap=None)
    n = tree.n_states
    rows = sum(lev.rows.nbytes + getattr(lev.next_rows, "nbytes", 0)
               for lev in tree.levels)
    assert kept <= 8 * (n(0) + n(12)) + rows + 2048 * 17
    assert peak <= kept + 8 * n(15) + 5 * 8 * n(16)
    assert peak < 8 * sum(map(n, range(17))) + rows + 3 * 8 * n(16)


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


def _searchsorted_step(grid, times):
    """The step index as a binary search over the nodes gives it."""
    j = np.searchsorted(grid.nodes, times, side="left") - 1
    return np.clip(j, 0, grid.steps - 1)


@pytest.mark.parametrize("horizon, steps", [
    (1.0, 50), (3.0, 7), (0.7, 150), (1e-3, 13), (10.0, 33), (2.5, 1)])
def test_step_of_matches_the_node_search(horizon, steps):
    # t lies in (t_j, t_{j+1}], clipped to the grid: on every node and its
    # neighbouring floats, at 0 and T, off the grid, and on the jump times
    # of several batches
    grid = jb.make_time_grid(horizon, steps)
    nodes = grid.nodes
    times = np.concatenate((nodes, np.nextafter(nodes, np.inf),
                            np.nextafter(nodes, -np.inf),
                            [0.0, horizon, -1.0, 2.0 * horizon]))
    got = grid.step_of(times)
    assert got.dtype == np.int64
    assert np.array_equal(got, _searchsorted_step(grid, times))
    marks = jb.make_mark_space([[1.0], [2.0]], [2.0, 5.0])
    for seed in range(4):
        batch = jb.simulate_poisson_measure(grid, marks, 300, seed)
        assert np.array_equal(batch.jump_steps,
                              _searchsorted_step(grid, batch.jump_times))


@pytest.mark.parametrize("d, m, N", [(1, 1, 40), (2, 1, 27), (1, 2, 25),
                                     (2, 2, 14)])
def test_rebuilt_probabilities_have_the_build_bits_in_any_order(d, m, N):
    # the tree keeps the probabilities at every CHECKPOINT_STRIDE-th depth;
    # state_probs rebuilds the others, a block at a time, with the build's
    # bits, read downwards, upwards or at random
    grid = jb.make_time_grid(1.0, N)
    marks = jb.make_mark_space([[1.0 + i] for i in range(m)],
                               [0.7 + 0.6 * i for i in range(m)])
    tree = jb.build_scenario_tree(grid, marks, d, node_cap=None)
    want = [lev.probs.tobytes() for lev in _unique_build(tree).levels]
    kept = [probs.tobytes() for probs in tree._probs.points]
    assert kept == want[::CHECKPOINT_STRIDE]
    rng = np.random.default_rng(N)
    for order in (range(N, -1, -1), range(N + 1), rng.permutation(N + 1)):
        for k in order:
            got = tree.state_probs(k)
            assert got.tobytes() == want[k] and not got.flags.writeable
            assert tree.n_states(k) == got.size
    for k in (-1, N + 1):
        with pytest.raises(IndexError, match=rf"^index {k} is outside "
                                             rf"\[0, {N}\]$"):
            tree.state_probs(k)


def test_ascending_read_rebuilds_each_block_once(monkeypatch):
    # the tree keeps the last block of depths it rebuilt: an ascending read
    # of the N = 150 lattice runs one probability step per depth off the
    # checkpoints (138), not one per depth from its checkpoint (813), and
    # the arrays handed out keep their bits while later blocks are rebuilt
    N = 150
    tree = jb.build_scenario_tree(jb.make_time_grid(1.0, N),
                                  jb.make_mark_space([[1.0]], [1.0]), 1,
                                  node_cap=None)
    steps = []
    advance = randomness._advance
    monkeypatch.setattr(randomness, "_advance",
                        lambda *args: steps.append(1) or advance(*args))
    read = [tree.state_probs(k) for k in range(N + 1)]
    assert len(steps) <= N
    assert len(steps) == N - N // CHECKPOINT_STRIDE
    want = [probs.tobytes() for probs in read]
    for k in range(N, -1, -1):
        assert tree.state_probs(k).tobytes() == want[k]
    assert [probs.tobytes() for probs in read] == want


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 40), st.integers(1, 13),
       st.sampled_from(["descending", "ascending", "shuffled"]), st.data())
def test_checkpoints_rebuild_the_single_pass_in_any_order(n, stride, order,
                                                          data):
    # a counting run whose values round differently in every step: each
    # read has the bits of the one pass at construction and is read-only;
    # an ascending or a descending read runs at most n steps; the old block
    # is gone before a block is built, so at most one block is referenced
    def step(x, i):
        return x * 1.1 + math.sin(i)

    steps, handed = [], {}

    def run(j, x, stop):
        assert not [k for k, ref in handed.items()
                    if k % stride and ref() is not None]
        for i in range(j, stop):
            steps.append(i)
            x = step(x, i)
            yield x

    want = [np.linspace(-1.0, 1.0, 3)]
    for i in range(n):
        want.append(step(want[-1], i))
    seq = _Checkpoints(want[0].copy(), run, n, stride)
    assert steps == list(range(n))
    assert ([x.tobytes() for x in seq.points]
            == [x.tobytes() for x in want[::stride]])
    steps.clear()
    ks = list(range(n + 1))
    if order == "descending":
        ks.reverse()
    elif order == "shuffled":
        ks = data.draw(st.permutations(ks)) + data.draw(
            st.lists(st.sampled_from(ks), max_size=20))
    for k in ks:
        got = seq.at(k)
        assert got.tobytes() == want[k].tobytes() and not got.flags.writeable
        handed[k] = weakref.ref(got)
        del got
        blocks = {i // stride for i, ref in handed.items()
                  if i % stride and ref() is not None}
        assert len(blocks) <= 1
    if order != "shuffled":
        assert len(steps) <= n
    for k in (-1, n + 1):
        with pytest.raises(IndexError, match=rf"\[0, {n}\]"):
            seq.at(k)
