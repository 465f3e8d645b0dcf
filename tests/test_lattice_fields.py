"""A lattice solution keeps Y only and reads (Z, V) from it on demand.

On the lattice (Z_k, V_k) is the exact branch-weighted projection of
Y_{k+1}, so neither a Picard iterate nor a returned solution stores them:
``sol.z`` and ``sol.v`` are sequences whose item j projects ``y[j + 1]``
when it is read. The values must be the bits the solve computed at each
depth, on the direct solve, on a Picard solve, over a sub-range and on a
chained solve, and every reader (norms, functionals, the residual
diagnostic) must see what it saw when (Z, V) were stored arrays.
"""

from unittest import mock

import numpy as np
import pytest

import jumpbsde as jb
from jumpbsde import solver
from jumpbsde.estimates import solution_functionals
from jumpbsde.solver import Solution, _setup
from conftest import assert_same
from test_meter import INIT, _problem

REPS = {"lattice": None, "tree": 10 ** 7}


def _recorded(run):
    """``run()`` with the new (Z_k, V_k) of every step recorded, the last
    per depth: the fields each depth's last solved step computed."""
    seen, project_frozen = {}, solver._Lattice.project_frozen

    def spy(self, y_next, k, entry):
        out = project_frozen(self, y_next, k, entry)
        seen[k] = out[1].copy(), out[2].copy()
        return out

    with mock.patch.object(solver._Lattice, "project_frozen", spy):
        return run(), seen


def _stored(sol):
    """The solution with its (Z, V) read once into lists of arrays, the
    layout a lattice solution had when it stored them."""
    return Solution(**{**vars(sol), "z": [z.copy() for z in sol.z],
                       "v": [v.copy() for v in sol.v]})


def _assert_fields(sol, seen, k_lo=0):
    assert len(sol.z) == len(sol.v) == len(seen) == len(sol.y) - 1
    for j, (z, v) in enumerate(zip(sol.z, sol.v)):
        assert_same(z, seen[k_lo + j][0])
        assert_same(v, seen[k_lo + j][1])


@pytest.mark.parametrize("d, m", [(1, 1), (2, 2)])
@pytest.mark.parametrize("name", sorted(REPS))
def test_direct_solve_reads_the_fields_it_computed(name, d, m):
    problem = _problem(d, m, 4)
    rep = _setup(problem, "tree", node_cap=REPS[name])
    sol, seen = _recorded(lambda: solver._solve(rep, problem))
    assert isinstance(sol.z, solver._Projected)
    _assert_fields(sol, seen)


@pytest.mark.parametrize("name", sorted(REPS))
def test_picard_solve_reads_its_last_sweeps_fields(name):
    # tol 0: the last sweeps skip the settled tail, whose fields an earlier
    # sweep computed from the same Y_{k+1}
    problem = _problem(1, 1, 6)
    rep = _setup(problem, "tree", node_cap=REPS[name])
    (sol, trace), seen = _recorded(lambda: solver._picard(
        rep, problem, tol=0.0, max_iter=25, init=INIT))
    assert trace.converged and trace.dist[-1] == 0.0
    _assert_fields(sol, seen)


def test_sub_range_picard_reads_from_its_first_depth():
    problem = _problem(2, 1, 6)
    rep = _setup(problem, "tree")
    terminal = solver._solve(rep, problem).y[5]
    (sol, _), seen = _recorded(lambda: solver._picard(
        rep, problem, max_iter=3, init=INIT, k_lo=2, k_hi=5,
        terminal_values=terminal))
    _assert_fields(sol, seen, k_lo=2)


def test_repeated_reads_give_the_same_read_only_bits():
    problem = _problem(2, 2, 5)
    sol = solver._solve(_setup(problem, "tree"), problem)
    first = [(z.copy(), v.copy()) for z, v in zip(sol.z, sol.v)]
    for j in (3, 3, 0, 4, 3):          # a repeat, then reads between depths
        assert_same(sol.z[j], first[j][0])
        assert_same(sol.v[j], first[j][1])
    assert sol.z[2] is sol.z[2]
    with pytest.raises(ValueError, match="read-only"):
        sol.z[1][0, 0] = 1.0


def test_fields_are_sequences_over_the_depths():
    problem = _problem(1, 2, 5)
    sol = solver._solve(_setup(problem, "tree"), problem)
    for field, width in ((sol.z, 1), (sol.v, 2)):
        stored = [lev.copy() for lev in field]
        assert len(field) == len(stored) == 5
        assert [lev.shape for lev in field] == [
            (sol.tree.n_states(k), width) for k in range(5)]
        assert_same(field[-1], stored[4])
        assert_same(field[-5], stored[0])
        for got, want in ((field[1:4], stored[1:4]),
                          (field[::-2], stored[::-2]), (field[7:], [])):
            assert isinstance(got, list) and len(got) == len(want)
            assert all(a.tobytes() == b.tobytes() for a, b in zip(got, want))
        for j in (5, -6):
            with pytest.raises(IndexError):
                field[j]
        assert [lev.tobytes() for lev in reversed(field)] == [
            lev.tobytes() for lev in stored[::-1]]


@pytest.mark.parametrize("name", sorted(REPS))
def test_chained_solve_norms_and_residual_read_the_joined_levels(name):
    # the joined solution projects its joined Y levels: each depth's fields
    # are its interval's, and the norms, the functionals and the residual
    # diagnostic read what they read from stored arrays
    problem = _problem(1, 1, 6)
    rep = _setup(problem, "tree", node_cap=REPS[name])
    plan = jb.SubdivisionPlan(np.linspace(0.0, 1.0, 4), 1.5, 0.5, 1.0, 0.5,
                              0.0)
    pieces, join = [], solver._join

    def spy(rep_, problem_, parts):
        pieces.extend((k_lo, _stored(piece)) for k_lo, piece in parts)
        return join(rep_, problem_, parts)

    with mock.patch.object(solver, "_join", spy):
        sol, _ = jb.chained_solve(problem, plan, "tree", tree=rep.tree,
                                  tol=1e-12, init=INIT)
    assert isinstance(sol.z, solver._Projected)
    for k_lo, piece in pieces:
        for j, (z, v) in enumerate(zip(piece.z, piece.v), k_lo):
            assert_same(sol.z[j], z)
            assert_same(sol.v[j], v)
    stored = _stored(sol)
    for p in (1.5, 2.0):
        assert (jb.solution_norms(sol, problem, p)
                == jb.solution_norms(stored, problem, p))
    assert_same(jb.bsde_residual_max(sol, problem),
                 jb.bsde_residual_max(stored, problem))
    if name == "tree":
        got, want = (solution_functionals(s, problem, 1.5)
                     for s in (sol, stored))
        for key in want:
            assert_same(got[key], want[key])


@pytest.mark.parametrize("name", sorted(REPS))
def test_readers_project_each_depth_once(name):
    # a meter takes Z_k and V_k in turn, so one projection serves both; the
    # residual diagnostic reads them depth by depth too
    problem = _problem(2, 1, 5)
    sol = solver._solve(_setup(problem, "tree", node_cap=REPS[name]),
                        problem)
    calls, expand = [], solver._Lattice.expand

    def counted(self, y_next, k):
        calls.append(k)
        return expand(self, y_next, k)

    with mock.patch.object(solver._Lattice, "expand", counted):
        jb.solution_norms(sol, problem)
        assert calls == list(range(5))
        calls.clear()
        rep = _setup(problem, "tree", sol.tree)
        rep.meter(1.5).feed(sol.y, sol.z, sol.v).norms()
        assert calls == list(range(5))
        calls.clear()
        jb.bsde_residual_max(sol, problem)
        assert calls == list(range(5))
