"""Picard sweeps one iterate in place and skips the settled tail.

The reference here is the two-iterate engine the in-place one replaced:
every sweep fills a new solution, the driver sees the previous iterate's
(Z, V) frozen, and the meter reads the differences of the two iterates
lazily after the sweep. The in-place engine keeps one iterate, meters each
depth before overwriting it and skips the depths whose inputs repeat the
previous sweep's bit for bit; its final (Y, Z, V) and its trace must be the
reference's, bit for bit.
"""

from unittest import mock

import numpy as np
import pytest

import jumpbsde as jb
from jumpbsde import solver
from jumpbsde.randomness import ScenarioTree, _Level
from jumpbsde.solver import _setup
from test_meter import INIT, _problem
from test_picard import _closure_truncation, _ladder_drivers


# ---------------------------------------------------------------------------
# the two-iterate reference
# ---------------------------------------------------------------------------

def _empty(rep, problem, k_lo, k_hi):
    """A solution over depths [k_lo, k_hi] with unset (Y, Z, V) arrays."""
    sol = solver._empty(rep, problem, k_lo, k_hi)
    steps = range(k_lo, k_hi)
    sol.z = [np.empty((rep.n_states(k), problem.d)) for k in steps]
    sol.v = [np.empty((rep.n_states(k), problem.marks.m)) for k in steps]
    return sol


def _join_ref(pieces):
    """Ascending reference pieces joined as a chained solve joins its
    intervals: a piece's first Y in place of the last Y below it."""
    y, z, v = [], [], []
    for _, piece in pieces:
        y, z, v = y[:-1] + piece.y, z + piece.z, v + piece.v
    return jb.Solution(kind=None, grid=None, fingerprint=None,
                       y0=float(y[0][0]), y=y, z=z, v=v)


def _sweep_ref(rep, problem, k_lo, k_hi, terminal_values, frozen):
    gen, dt = problem.generator, problem.grid.dt
    kappa_dt = gen.lipschitz_kappa * dt
    sol = _empty(rep, problem, k_lo, k_hi)
    sol.y[-1][...] = np.asarray(terminal_values, dtype=float)
    for k in range(k_hi - 1, k_lo - 1, -1):
        j = k - k_lo
        # an empty entry: the step's own projections
        cond_mean, z, v, _, _ = rep.project_frozen(sol.y[j + 1], k, None,
                                                   None)
        sol.y[j][...] = solver._solve_implicit(
            cond_mean, gen.bind(rep.context(problem, k), frozen.z[j],
                                frozen.v[j]), dt, kappa_dt)
        sol.z[j][...] = z
        sol.v[j][...] = v
    sol.y0 = float(sol.y[0][0])
    return sol


def _picard_ref(rep, problem, tol=1e-9, max_iter=25, q=None,
                init=(0.0, 0.0, 0.0), k_hi=None, k_lo=0,
                terminal_values=None):
    if q is None:
        q = solver.picard_q(problem.generator.growth_alpha)
    N = problem.grid.steps
    k_hi = N if k_hi is None else k_hi
    if terminal_values is None:
        terminal_values = problem.terminal(rep.context(problem, N))
    prev = _empty(rep, problem, k_lo, k_hi)
    for f, value in zip("yzv", init):
        for level in getattr(prev, f):
            level[...] = value
    trace = solver.PicardTrace(q=q)
    for it in range(1, max_iter + 1):
        cur = _sweep_ref(rep, problem, k_lo, k_hi, terminal_values, prev)
        trace.n_iter = it
        trace.record(*rep.norms(q, map(np.subtract, cur.y, prev.y),
                                map(np.subtract, cur.z, prev.z),
                                map(np.subtract, cur.v, prev.v),
                                k_lo=k_lo))
        if trace.dist[-1] <= tol:
            trace.converged = True
            break
        if (len(trace.ratios) >= 3 and min(trace.ratios[-3:]) >= 1.0
                and trace.dist[-1] > trace.dist[0]):
            trace.diverged = True
            break
        prev = cur
    return cur, trace


def _same_bits(a, b):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def _assert_same_solution(got, want):
    for f in "yzv":
        assert len(getattr(got, f)) == len(getattr(want, f))
        assert all(_same_bits(a, b)
                   for a, b in zip(getattr(got, f), getattr(want, f)))
    assert _same_bits(got.y0, want.y0)


TRACE_KEYS = ("dy", "dz", "dv", "dist", "ratios")


def _assert_same_trace(got, want):
    if isinstance(got, dict):               # a solution's diagnostics entry
        got = jb.PicardTrace(dy=got["dy"], dz=got["dz"], dv=got["dv"],
                             dist=got["distances"], ratios=got["ratios"],
                             n_iter=got["n_iter"],
                             converged=got["converged"],
                             diverged=got["diverged"])
    for key in TRACE_KEYS:
        assert _same_bits(getattr(got, key), getattr(want, key)), key
    assert ((got.n_iter, got.converged, got.diverged)
            == (want.n_iter, want.converged, want.diverged))


# ---------------------------------------------------------------------------
# one solve
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("method, d, m, N, node_cap, init", [
    ("tree", 1, 1, 12, None, (0.0, 0.0, 0.0)),
    ("tree", 1, 1, 12, None, INIT),
    ("tree", 2, 2, 5, None, (0.0, 0.0, 0.0)),
    ("tree", 1, 1, 5, 10 ** 7, INIT),
    ("tree", 2, 1, 4, 10 ** 7, (0.0, 0.0, 0.0)),
    ("mc", 2, 2, 5, None, INIT),
    ("mc", 1, 1, 12, None, (0.0, 0.0, 0.0)),
], ids=["lattice-1-1-12", "lattice-1-1-12-init", "lattice-2-2-5",
        "tree-1-1-5-init", "tree-2-1-4", "batch-2-2-5-init", "batch-1-1-12"])
def test_picard_matches_two_iterate_reference(method, d, m, N, node_cap,
                                              init):
    problem = _problem(d, m, N)
    rep = _setup(problem, method, node_cap=node_cap, n_paths=400, seed=3)
    kw = {"tol": 1e-12, "max_iter": 25, "q": 1.5, "init": init}
    sol, trace = solver._picard(rep, problem, **kw)
    want_sol, want_trace = _picard_ref(rep, problem, **kw)
    assert trace.n_iter >= 4
    _assert_same_solution(sol, want_sol)
    _assert_same_trace(trace, want_trace)


def test_start_at_the_terminal_value_is_not_a_settled_sweep():
    # Y_N starts at the terminal value, so the first sweep leaves it
    # unchanged; the first sweep's (Z, V) still differ from the start's, so
    # the second sweep must not skip depth N - 1
    marks = jb.make_mark_space([[1.0]], [1.0])
    gen = jb.make_generator("lipschitz-smooth",
                            {"ay": 0.5, "bz": [0.25], "cv": 0.25},
                            marks=marks, d=1)
    term = jb.make_terminal("constant", {"value": 0.5}, marks=marks, d=1)
    problem = jb.make_problem(1.0, 6, 1, marks, gen, term)
    for method in ("tree", "mc"):
        rep = _setup(problem, method, n_paths=300, seed=1)
        kw = {"tol": 0.0, "max_iter": 4, "init": (0.5, 0.3, -0.2)}
        sol, trace = solver._picard(rep, problem, **kw)
        want_sol, want_trace = _picard_ref(rep, problem, **kw)
        _assert_same_solution(sol, want_sol)
        _assert_same_trace(trace, want_trace)


@pytest.mark.parametrize("method, node_cap", [
    ("tree", None), ("tree", 10 ** 7), ("mc", None)],
    ids=["lattice", "tree", "batch"])
def test_chained_solve_matches_two_iterate_reference(method, node_cap):
    # every interval but the last solved meters a sub-range with k_lo > 0
    problem = _problem(1, 1, 6)
    plan = jb.SubdivisionPlan(np.linspace(0.0, 1.0, 4), 1.5, 0.5, 1.0, 0.5,
                              0.0)
    rep = _setup(problem, method, node_cap=node_cap, n_paths=300, seed=5)
    kw = {"tol": 1e-12, "max_iter": 25, "q": 1.5, "init": INIT}
    sol, traces = jb.chained_solve(problem, plan, method, tree=rep.tree,
                                   batch=rep.batch, **kw)
    pieces, terminal = [], None
    for i, k_lo in enumerate((4, 2, 0)):
        piece, want_trace = _picard_ref(rep, problem, k_lo=k_lo,
                                        k_hi=k_lo + 2,
                                        terminal_values=terminal, **kw)
        _assert_same_trace(traces[i], want_trace)
        pieces.append((k_lo, piece))
        terminal = piece.y[0]
    _assert_same_solution(sol, _join_ref(pieces[::-1]))


@pytest.mark.parametrize("method", ["tree", "mc"])
@pytest.mark.parametrize("driver", ["affine", "custom"])
@pytest.mark.parametrize("truncation", ["bound", "closure"])
def test_ladder_matches_two_iterate_reference(monkeypatch, method, driver,
                                              truncation):
    marks = jb.make_mark_space([[1.0]], [0.5])
    term = jb.make_terminal("brownian-functional", {"kind": "exp"},
                            marks=marks, d=1)
    problem = jb.make_problem(1.0, 12, 1, marks,
                              _ladder_drivers(marks)[driver], term)
    rep = _setup(problem, method, node_cap=None, n_paths=800, seed=3)
    if truncation == "closure":
        monkeypatch.setattr(solver, "truncate_problem", _closure_truncation)
    levels = [1, 2, 8]
    ladder = jb.truncation_ladder_solve(problem, levels, method,
                                        tree=rep.tree, batch=rep.batch)
    for n, sol in zip(levels, ladder.solutions):
        want_sol, want_trace = _picard_ref(
            rep, solver.truncate_problem(problem, n))
        _assert_same_solution(sol, want_sol)
        _assert_same_trace(sol.diagnostics["picard"], want_trace)


# ---------------------------------------------------------------------------
# a path batch's iterate keeps (Z, V) as coefficients
# ---------------------------------------------------------------------------

def _coefficient_run(monkeypatch, run, rep):
    """``run()`` with the batch iterate checked at every sweep: its (Z, V)
    entries are rows or coefficient matrices, never per-path arrays, and
    the driver reads the frozen (Z, V) C-contiguous."""
    bind, backward, gen = jb.GeneratorSpec.bind, solver._backward, []

    def bind_spy(self, ctx, z, v):
        gen.append(z.flags.c_contiguous and v.flags.c_contiguous)
        return bind(self, ctx, z, v)

    def backward_spy(rep_, problem, k_lo, k_hi, *args, iterate, **kwargs):
        backward(rep_, problem, k_lo, k_hi, *args, iterate=iterate, **kwargs)
        for k, entry in enumerate(iterate[1], k_lo):
            rows = len(rep._bases[k].exps) if entry.ndim == 2 else None
            assert entry.shape[-1] == rep.d + rep.m
            assert entry.ndim == 1 or entry.shape[0] == rows

    with monkeypatch.context() as patch:
        patch.setattr(jb.GeneratorSpec, "bind", bind_spy)
        patch.setattr(solver, "_backward", backward_spy)
        out = run()
    assert gen and all(gen)
    return out


def test_batch_coefficients_match_two_iterate_reference(monkeypatch):
    # d = m = 2 at basis degree 2, with rare jumps: pivoting drops the
    # squares of the 0/1 jump counts, so early steps have fewer
    # coefficients than monomials
    marks = jb.make_mark_space([[1.0], [2.0]], [0.15, 0.25])
    gen = jb.make_generator("lipschitz-smooth",
                            {"ay": 0.5, "bz": [0.25, 0.25], "cv": 0.25},
                            marks=marks, d=2)
    term = jb.make_terminal("state-linear",
                            {"brownian_weights": [1.0, 1.0],
                             "jump_weights": [0.5, 0.5], "compensated": True},
                            marks=marks, d=2)
    problem = jb.make_problem(1.0, 6, 2, marks, gen, term)
    rep = _setup(problem, "mc", n_paths=400, seed=3, basis_degree=2)
    kw = {"tol": 1e-12, "max_iter": 25, "q": 1.5, "init": INIT}
    sol, trace = _coefficient_run(
        monkeypatch, lambda: solver._picard(rep, problem, **kw), rep)
    full = len(solver._monomial_exponents(4, 2))
    assert any(len(basis.exps) < full for basis in rep._bases.values())
    assert trace.n_iter >= 4
    want_sol, want_trace = _picard_ref(rep, problem, **kw)
    _assert_same_solution(sol, want_sol)
    _assert_same_trace(trace, want_trace)
    # one interval with k_lo > 0, from the solve's Y at its right end
    kw_sub = {**kw, "k_lo": 2, "k_hi": 4, "terminal_values": sol.y[4]}
    piece, trace = _coefficient_run(
        monkeypatch, lambda: solver._picard(rep, problem, **kw_sub), rep)
    want_sol, want_trace = _picard_ref(rep, problem, **kw_sub)
    _assert_same_solution(piece, want_sol)
    _assert_same_trace(trace, want_trace)
    # a chained solve: intervals [4, 6], [2, 4], [0, 2]
    plan = jb.SubdivisionPlan(np.linspace(0.0, 1.0, 4), 1.5, 0.5, 1.0, 0.5,
                              0.0)
    sol, traces = _coefficient_run(monkeypatch, lambda: jb.chained_solve(
        problem, plan, "mc", batch=rep.batch, **kw), rep)
    pieces, terminal = [], None
    for i, k_lo in enumerate((4, 2, 0)):
        piece, want_trace = _picard_ref(rep, problem, k_lo=k_lo,
                                        k_hi=k_lo + 2,
                                        terminal_values=terminal, **kw)
        _assert_same_trace(traces[i], want_trace)
        pieces.append((k_lo, piece))
        terminal = piece.y[0]
    _assert_same_solution(sol, _join_ref(pieces[::-1]))


# ---------------------------------------------------------------------------
# the settled tail
# ---------------------------------------------------------------------------

def test_settled_tail_is_skipped():
    # sweep i (counted from 0) skips at least the i - 1 depths below the
    # terminal: the terminal repeats from sweep 1 on, and each sweep that
    # repeats the previous one's inputs at a depth repeats its output there
    N = 12
    problem = _problem(1, 1, N)
    rep = _setup(problem, "tree", node_cap=None)
    calls, backward, solve = [], solver._backward, solver._solve_implicit

    def sweep(*args, **kwargs):
        calls.append(0)
        return backward(*args, **kwargs)

    def step(*args, **kwargs):
        calls[-1] += 1
        return solve(*args, **kwargs)

    with mock.patch.object(solver, "_backward", sweep), \
            mock.patch.object(solver, "_solve_implicit", step):
        sol, trace = solver._picard(rep, problem, tol=1e-12)
    assert trace.converged and len(calls) == trace.n_iter >= 6
    assert calls[:2] == [N, N]
    for i, n in enumerate(calls):
        assert n <= N - i + 1
    want_sol, want_trace = _picard_ref(rep, problem, tol=1e-12)
    _assert_same_solution(sol, want_sol)
    _assert_same_trace(trace, want_trace)


# ---------------------------------------------------------------------------
# the state context
# ---------------------------------------------------------------------------

def test_lattice_sweep_builds_no_state_arrays_below_the_terminal():
    # a built-in driver's bind reads neither the Brownian values nor the
    # jump counts of a depth, so a Picard solve on the lattice builds them
    # only for the terminal
    N = 12
    problem = _problem(1, 1, N)
    rep = _setup(problem, "tree", node_cap=None)
    built = []
    brownian = ScenarioTree.brownian_values
    counts = _Level.jump_counts.fget

    def brownian_spy(tree, depth):
        built.append(("brownian", depth))
        return brownian(tree, depth)

    def counts_spy(level):
        built.append(("counts", level.depth))
        return counts(level)

    with mock.patch.object(ScenarioTree, "brownian_values", brownian_spy), \
            mock.patch.object(_Level, "jump_counts", property(counts_spy)):
        sol, trace = solver._picard(rep, problem, tol=1e-12)
    assert trace.converged and trace.n_iter >= 2
    assert sorted(set(built)) == [("brownian", N), ("counts", N)]
    want_sol, _ = _picard_ref(rep, problem, tol=1e-12)
    _assert_same_solution(sol, want_sol)
