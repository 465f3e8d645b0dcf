"""The regression basis of a path batch keeps no per-path array.

A step's ``_StepBasis`` keeps, per kept feature, its state column and the
mean and std that standardize it, the kept monomials and their Gram; every
``fit`` standardizes the columns of the step's states again and refills the
design into a buffer that the batch owns and reuses. The reference here is
the basis that cached each step's design matrix: the fitted values must
match it bit for bit. The batch keeps its states once, step-major, with the
jump counts in the narrowest unsigned dtype; a solve on it must match, bit
for bit, the same solve on the path-major float64 states of
``reference.state_paths``. The memory tests bound what the bases and a whole
Monte Carlo solve hold.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import jumpbsde as jb
from jumpbsde import solver
from jumpbsde.errors import ConditioningError
from jumpbsde.solver import _monomial_exponents, _pivoted_columns, _setup
from conftest import hand_batch, traced_peak
from reference import state_paths


class _CachedDesignBasis:
    """The basis that keeps each step's (n, kept) design matrix."""

    def __init__(self, states, degree, step):
        cols = []
        for j in range(states.shape[1]):
            col = states[:, j]
            if col.max() == col.min():
                continue
            cols.append((col - col.mean()) / col.std())
        if cols and degree >= 1:
            feats = np.stack(cols, axis=1)
            exps = _monomial_exponents(feats.shape[1], degree)
            design = np.empty((states.shape[0], len(exps)))
            for i, e in enumerate(exps):
                col = np.ones(states.shape[0])
                for j, power in enumerate(e):
                    if power:
                        col = col * feats[:, j] ** power
                design[:, i] = col
        else:
            design = np.ones((states.shape[0], 1))
        if design.shape[0] < design.shape[1]:
            raise ConditioningError(step, "rank-deficient")
        gram = np.einsum("ni,nj->ij", design, design, optimize=False)
        keep = _pivoted_columns(gram)
        self.design = design[:, keep]
        self.gram = gram[np.ix_(keep, keep)]

    def fit(self, targets):
        rhs = np.einsum("ni,nt->it", self.design, targets, optimize=False)
        beta = np.linalg.solve(self.gram, rhs)
        return np.einsum("ni,it->nt", self.design, beta, optimize=False)


def _states(rng, n, d, m, constant, binary):
    """Brownian values (n, d) and uint8 jump counts (n, m) at one step, as a
    batch passes them; column ``constant`` (if any) of the two side by side
    is constant, and the counts are 0/1 when ``binary``."""
    bvals = rng.standard_normal((n, d)) * rng.uniform(0.1, 3.0)
    counts = (rng.random((n, m)) < 0.3 if binary
              else rng.poisson(1.5, (n, m))).astype(np.uint8)
    if constant is not None:
        j = constant % (d + m)
        if j < d:
            bvals[:, j] = rng.integers(-2, 3)
        else:
            counts[:, j - d] = rng.integers(0, 3)
    return bvals, counts


def _side_by_side(states):
    """The state blocks as one float64 (n, d + m) matrix."""
    return np.concatenate([block.astype(float) for block in states], axis=1)


def _buffer(n, d, m, degree):
    # as the batch sizes it: room for every monomial of the features
    return np.empty(n * len(_monomial_exponents(d + m, degree)))


def _arrays(value):
    """The arrays in an attribute value, nested lists and tuples included."""
    if isinstance(value, np.ndarray):
        yield value
    elif isinstance(value, (list, tuple)):
        for item in value:
            yield from _arrays(item)


def _fit(basis, states, targets, buf):
    """Fitted values (n, nt) of stacked targets, as a batch computes them:
    the refilled design times the coefficients, target-major."""
    design = basis.design(states, buf)
    return solver._combine(design, basis.coefficients(design, targets)).T


def _assert_same_fit(states, degree, targets, buf):
    got = solver._StepBasis(states, degree, step=3)
    want = _CachedDesignBasis(_side_by_side(states), degree, step=3)
    assert got.gram.tobytes() == want.gram.tobytes()
    assert len(got.exps) == want.design.shape[1]
    assert (_fit(got, states, targets, buf).tobytes()
            == want.fit(targets).tobytes())
    # no attribute of the basis holds a per-path array
    n = targets.shape[0]
    assert not [a.shape for value in vars(got).values()
                for a in _arrays(value) if n in a.shape]
    return got


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([1, 2]), st.sampled_from([1, 2]), st.integers(0, 3),
       st.integers(60, 400), st.none() | st.integers(0, 3), st.booleans(),
       st.integers(0, 2 ** 32 - 1))
def test_fit_matches_the_cached_design_bit_for_bit(d, m, degree, n, constant,
                                                   binary, seed):
    rng = np.random.default_rng(seed)
    states = _states(rng, n, d, m, constant, binary)
    targets = rng.standard_normal((n, 1 + d + m))
    _assert_same_fit(states, degree, targets, _buffer(n, d, m, degree))


def test_binary_count_squares_are_dropped():
    # a 0/1 count equals its square, so a standardized one's square is in
    # the span of the intercept and itself: pivoting drops one column of
    # each such pair
    rng = np.random.default_rng(11)
    states = _states(rng, 500, 1, 2, None, binary=True)
    targets = rng.standard_normal((500, 4))
    basis = _assert_same_fit(states, 2, targets, _buffer(500, 1, 2, 2))
    assert len(basis.exps) == len(_monomial_exponents(3, 2)) - 2


def test_constant_features_are_not_kept():
    rng = np.random.default_rng(5)
    states = _states(rng, 200, 2, 1, 1, binary=False)
    basis = _assert_same_fit(states, 3, rng.standard_normal((200, 4)),
                             _buffer(200, 2, 1, 3))
    assert [j for j, _, _ in basis.feats] == [0, 2]


def test_one_buffer_serves_bases_of_different_widths():
    # two steps with different kept-column counts refill one buffer in turn
    rng = np.random.default_rng(2)
    n, d, m, degree = 300, 2, 2, 2
    buf = _buffer(n, d, m, degree)
    wide = _states(rng, n, d, m, None, binary=False)
    narrow = _states(rng, n, d, m, 3, binary=True)
    bases = [(s, solver._StepBasis(s, degree, step=1),
              _CachedDesignBasis(_side_by_side(s), degree, step=1))
             for s in (wide, narrow)]
    assert len(bases[0][1].exps) > len(bases[1][1].exps)
    for _ in range(2):
        for states, got, want in bases + bases[::-1]:
            targets = rng.standard_normal((n, 1 + d + m))
            assert (_fit(got, states, targets, buf).tobytes()
                    == want.fit(targets).tobytes())


def test_rank_deficient_step_raises_naming_it():
    rng = np.random.default_rng(0)
    states = _states(rng, 8, 2, 2, None, binary=False)
    with pytest.raises(ConditioningError, match="step 4"):
        solver._StepBasis(states, 3, step=4)


# ---------------------------------------------------------------------------
# memory
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


@pytest.mark.parametrize("d, m", [(1, 1), (2, 2)])
def test_mc_solve_holds_step_major_states_and_one_design(d, m):
    n, N, degree = 4000, 20, 2
    problem = _problem(d, m, N)
    batch = jb.simulate_paths(problem.grid, problem.marks, d, n, 0)
    rep = _setup(problem, "mc", batch=batch, basis_degree=degree)
    (sol, trace), _, peak = traced_peak(solver._picard, rep, problem)
    assert trace.converged
    # Y, the meter's Z and |V|^p levels, the states, the Grams, one meter
    # block and the design buffer, with the per-step fit temporaries as
    # slack: the bases hold no features, and the Brownian values are kept
    # at the checkpoint nodes (0, 4, ..., 20) and the node summed last only,
    # beside the uint8 counts at every node; all N+1 nodes' values would
    # add 14 n d floats and break the bound
    y = sum(lev.nbytes for lev in sol.y)
    meter = 8 * (N * (d + m) + 1) * n
    points = len(range(0, N + 1, rep.CHECKPOINT_STRIDE)) + 1
    states = points * n * 8 * d + (N + 1) * n * m
    grams = sum(b.gram.nbytes for b in rep._bases.values())
    design = n * len(_monomial_exponents(d + m, degree)) * 8
    block = 8 * min(n, solver._BatchSweep.CHUNK_ROWS) * N * max(d, m)
    assert peak <= y + meter + states + grams + design + block + 8 * 12 * n
    for k in range(N + 1):
        assert [a.dtype for a in rep.state(k)] == [np.float64, np.uint8]


# ---------------------------------------------------------------------------
# narrow jump counts
# ---------------------------------------------------------------------------

def _path_major(problem, batch):
    """The batch's representation on the path-major float64 states of
    ``reference.state_paths``: its step slices are strided views."""
    rep = _setup(problem, "mc", batch=batch)
    bvals, counts = state_paths(batch)
    rep.state = lambda k: [bvals[:, k], counts[:, k]]
    rep._counts = counts.transpose(1, 0, 2)
    return rep


def _assert_same_solve(problem, batch):
    """Picard on the batch's own states equals, bit for bit, Picard on the
    path-major float64 states; returns the batch's representation."""
    rep = _setup(problem, "mc", batch=batch)
    sol, trace = solver._picard(rep, problem)
    want_sol, want_trace = solver._picard(_path_major(problem, batch), problem)
    for field in ("y", "z", "v"):
        assert ([lev.tobytes() for lev in getattr(sol, field)]
                == [lev.tobytes() for lev in getattr(want_sol, field)])
    assert trace.to_json_dict() == want_trace.to_json_dict()
    bvals, counts = state_paths(batch)
    for k in range(batch.grid.steps + 1):
        got_bvals, got_counts = rep.state(k)
        assert np.array_equal(got_bvals, bvals[:, k])
        assert np.array_equal(got_counts, counts[:, k])
    return rep


def _hand_batch(problem, rng, n, per_path):
    """A hand batch of n paths with per_path[i] jumps on path i, at sorted
    uniform times with uniform marks, and normal Brownian increments."""
    grid, m = problem.grid, problem.marks.m
    events = [[[float(t), int(rng.integers(m))]
               for t in np.sort(rng.uniform(0.0, grid.horizon, k))]
              for k in per_path]
    inc = rng.standard_normal((n, grid.steps, problem.d)) * np.sqrt(grid.dt)
    return hand_batch(grid, problem.marks, events, d=problem.d,
                      increments=inc)


def test_counts_past_255_take_uint16():
    rng = np.random.default_rng(3)
    problem = _problem(1, 1, 10)
    per_path = [300] + list(rng.poisson(1.5, 59))
    rep = _assert_same_solve(problem, _hand_batch(problem, rng, 60, per_path))
    counts = rep.state(problem.grid.steps)[1]
    assert counts.dtype == np.uint16 and counts[0, 0] == 300


def test_a_batch_without_jumps_drops_the_count_feature():
    rng = np.random.default_rng(4)
    problem = _problem(1, 1, 10)
    rep = _assert_same_solve(problem, _hand_batch(problem, rng, 60, [0] * 60))
    counts = [rep.state(k)[1] for k in range(problem.grid.steps + 1)]
    assert all(c.dtype == np.uint8 and not c.any() for c in counts)
    # the count column is constant: every basis keeps the Brownian one only
    assert len(rep._bases) == 9
    assert all([j for j, _, _ in b.feats] == [0] for b in rep._bases.values())


@pytest.mark.parametrize("d, m", [(1, 1), (2, 2)])
def test_simulated_batches_match_float_counts(d, m):
    problem = _problem(d, m, 8)
    batch = jb.simulate_paths(problem.grid, problem.marks, d, 2000, 5)
    rep = _assert_same_solve(problem, batch)
    for k in range(9):
        bvals, counts = rep.state(k)
        assert counts.dtype == np.uint8
        assert bvals.shape == (2000, d) and bvals.flags.c_contiguous


@pytest.mark.parametrize("d, m, N", [(1, 1, 50), (2, 2, 17), (1, 2, 8),
                                     (3, 1, 24)])
def test_batch_nodes_equal_cumsum_in_any_order(d, m, N):
    # the batch keeps the Brownian values at every CHECKPOINT_STRIDE-th node
    # and sums the others again from the checkpoint below: each read, in any
    # order, is np.cumsum's node bit for bit, C-contiguous (n, d) and
    # read-only; a node outside [0, N] raises
    n = 300
    problem = _problem(d, m, N)
    batch = jb.simulate_paths(problem.grid, problem.marks, d, n, 3)
    want = np.zeros((N + 1, n, d))
    np.cumsum(batch.brownian_increments.transpose(1, 0, 2), axis=0,
              out=want[1:])
    rng = np.random.default_rng(N)
    for order in (range(N, -1, -1), range(N + 1),
                  np.tile(rng.permutation(N + 1), 2)):
        rep = _setup(problem, "mc", batch=batch)
        for k in order:
            got = rep.state(k)[0]
            assert got.shape == (n, d) and got.flags.c_contiguous
            assert not got.flags.writeable
            assert got.tobytes() == want[k].tobytes()
    for k in (-1, N + 1):
        with pytest.raises(IndexError, match=rf"^index {k} is outside "
                                             rf"\[0, {N}\]$"):
            rep.state(k)
