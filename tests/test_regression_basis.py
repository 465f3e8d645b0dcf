"""The regression basis of a path batch keeps features, not designs.

A step's ``_StepBasis`` keeps its standardized feature columns, the kept
monomials and their Gram; every ``fit`` refills the design into a buffer
that the batch owns and reuses. The reference here is the basis that cached
each step's design matrix: the fitted values must match it bit for bit. The
memory tests bound what the bases and a whole Monte Carlo solve hold.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import jumpbsde as jb
from jumpbsde import solver
from jumpbsde.errors import ConditioningError
from jumpbsde.solver import _monomial_exponents, _pivoted_columns, _setup


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
    """Brownian values then jump counts at one step; column ``constant`` (if
    any) is constant, and the counts are 0/1 when ``binary``."""
    states = np.empty((n, d + m))
    states[:, :d] = rng.standard_normal((n, d)) * rng.uniform(0.1, 3.0)
    counts = rng.random((n, m)) < 0.3 if binary else rng.poisson(1.5, (n, m))
    states[:, d:] = counts
    if constant is not None:
        states[:, constant % (d + m)] = rng.integers(-2, 3)
    return states


def _buffer(n, d, m, degree):
    # as the batch sizes it: room for every monomial of the features
    return np.empty(n * len(_monomial_exponents(d + m, degree)))


def _assert_same_fit(states, degree, targets, buf):
    got = solver._StepBasis(states, degree, step=3)
    want = _CachedDesignBasis(states, degree, step=3)
    assert got.gram.tobytes() == want.gram.tobytes()
    assert len(got.exps) == want.design.shape[1]
    assert got.fit(targets, buf).tobytes() == want.fit(targets).tobytes()
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
    assert len(basis.feats) == 2
    assert all(f.ndim == 1 and f.flags.c_contiguous for f in basis.feats)


def test_one_buffer_serves_bases_of_different_widths():
    # two steps with different kept-column counts refill one buffer in turn
    rng = np.random.default_rng(2)
    n, d, m, degree = 300, 2, 2, 2
    buf = _buffer(n, d, m, degree)
    wide = _states(rng, n, d, m, None, binary=False)
    narrow = _states(rng, n, d, m, 3, binary=True)
    bases = [(s, solver._StepBasis(s, degree, step=1),
              _CachedDesignBasis(s, degree, step=1)) for s in (wide, narrow)]
    assert len(bases[0][1].exps) > len(bases[1][1].exps)
    for _ in range(2):
        for _, got, want in bases + bases[::-1]:
            targets = rng.standard_normal((n, 1 + d + m))
            assert (got.fit(targets, buf).tobytes()
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
def test_mc_solve_holds_features_and_one_design(d, m):
    n, N, degree = 4000, 20, 2
    problem = _problem(d, m, N)
    batch = jb.simulate_paths(problem.grid, problem.marks, d, n, 0)
    rep = _setup(problem, "mc", batch=batch, basis_degree=degree)
    tracemalloc.start()
    try:
        sol, trace = solver._picard(rep, problem)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert trace.converged
    # the bases hold the features and the Grams, no design
    grams = sum(b.gram.nbytes for b in rep._bases.values())
    held = sum(f.nbytes for b in rep._bases.values() for f in b.feats)
    assert held <= N * n * (d + m) * 8
    # two iterates, the state paths, the features, one meter block and the
    # design buffer, with the per-step fit temporaries as slack
    one = sum(lev.nbytes for f in (sol.y, sol.z, sol.v) for lev in f)
    states = sum(a.nbytes for a in rep._states)
    n_cols = len(_monomial_exponents(d + m, degree))
    bound = (2 * one + states + held + grams + N * n * max(d, m) * 8
             + n * n_cols * 8 + 6 * n * (1 + d + m) * 8)
    assert peak <= bound
