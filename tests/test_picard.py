"""Picard iteration, contraction monitoring, subdivision, truncation ladder."""

import math

import numpy as np
import pytest
from scipy.stats import norm as normal_dist

import jumpbsde as jb


def _coupled_problem(cz, cv, T, N, term_kind="square", lam=1.0):
    marks = jb.make_mark_space([[1.0]], [lam])
    gen = jb.make_generator("zv-coupled", {"cz": cz, "cv": cv},
                            marks=marks, d=1)
    term = jb.make_terminal("brownian-functional", {"kind": term_kind},
                            marks=marks, d=1)
    return jb.make_problem(T, N, 1, marks, gen, term)


def test_decoupled_converges_after_one_sweep():
    # frozen (z, v) unused: iteration 2 reproduces iteration 1 bitwise
    marks = jb.make_mark_space([[1.0]], [1.0])
    gen = jb.make_generator("affine", {"a": 0.5}, marks=marks, d=1)
    term = jb.make_terminal("brownian-functional", {"kind": "linear"},
                            marks=marks, d=1)
    prob = jb.make_problem(1.0, 6, 1, marks, gen, term)
    sol, tr = jb.picard_solve(prob, "tree")
    assert tr.converged and tr.n_iter == 2
    assert tr.dist[1] == 0.0


def test_affine_coupled_fixed_point():
    # f = 0.25 z1, xi = B_T: the fixed point is Y = B_t + 0.25 (T - t), Z = 1
    marks = jb.make_mark_space([[1.0]], [1.0])
    gen = jb.make_generator("affine", {"b": [0.25]}, marks=marks, d=1)
    term = jb.make_terminal("brownian-functional", {"kind": "linear"},
                            marks=marks, d=1)
    prob = jb.make_problem(1.0, 8, 1, marks, gen, term)
    tree = jb.build_scenario_tree(prob.grid, marks, 1)
    sol, tr = jb.picard_solve(prob, "tree", tree=tree)
    assert tr.converged
    assert all(r < 1 for r in tr.ratios)
    for k in range(9):
        expect = tree.brownian_values(k)[:, 0] + 0.25 * (1.0 - prob.grid.nodes[k])
        assert np.allclose(sol.y[k], expect, atol=1e-13)
    assert max(float(np.max(np.abs(lv - 1.0))) for lv in sol.z) < 1e-12


def test_geometric_envelope_short_horizon():
    prob = _coupled_problem(2.0, 2.0, 0.5, 6)
    sol, tr = jb.picard_solve(prob, "tree", tol=1e-12, max_iter=12,
                              node_cap=None)
    assert tr.converged
    r1 = tr.dist[1] / tr.dist[0]
    assert r1 < 1
    for n, d in enumerate(tr.dist):
        assert d <= 1.5 * tr.dist[0] * r1 ** n + 1e-30


def test_divergence_reported_on_long_horizon():
    # kappa C T^{1-q/2} deliberately large: T=10, kappa=5
    prob = _coupled_problem(5.0, 5.0, 10.0, 60)
    sol, tr = jb.picard_solve(prob, "tree", max_iter=12, node_cap=None)
    assert tr.diverged and not tr.converged
    assert len(tr.ratios) >= 3 and all(r >= 1 for r in tr.ratios[-3:])
    assert "subdivide" in tr.message
    assert "10" in tr.message  # interval length surfaced


def test_perturbed_initialization_same_fixed_point():
    marks = jb.make_mark_space([[1.0]], [1.0])
    gen = jb.make_generator("affine", {"b": [0.25]}, marks=marks, d=1)
    term = jb.make_terminal("brownian-functional", {"kind": "linear"},
                            marks=marks, d=1)
    prob = jb.make_problem(1.0, 8, 1, marks, gen, term)
    tree = jb.build_scenario_tree(prob.grid, marks, 1)
    s0, _ = jb.picard_solve(prob, "tree", tree=tree)
    s1, _ = jb.picard_solve(prob, "tree", tree=tree, init=(10.0, 1.0, 1.0))
    assert all(np.array_equal(a, b) for a, b in zip(s0.y, s1.y))


def test_mc_picard_converges():
    prob = _coupled_problem(0.4, 0.4, 1.0, 10)
    sol, tr = jb.picard_solve(prob, "mc", n_paths=4000, seed=3, tol=1e-8,
                              max_iter=20)
    assert tr.converged
    assert sol.kind == "paths"


# ---------------------------------------------------------------------------
# subdivision
# ---------------------------------------------------------------------------

def test_subdivide_trivial():
    plan = jb.subdivide_horizon(1.0, 0.2, 1.5, c_emp=1.0, safety=0.5)
    assert plan.k_intervals == 1
    assert np.array_equal(plan.breakpoints, [0.0, 1.0])


def test_subdivide_arithmetic():
    # kappa c (T/K)^(1-q/2) <= s with T=4, q=1.5, s=0.5: (4/K)^(1/4) <= 1/2,
    # so K = 4 * 2^4 / ... = 64 is the smallest admissible split
    plan = jb.subdivide_horizon(4.0, 1.0, 1.5, c_emp=1.0, safety=0.5)
    assert plan.k_intervals == 64
    assert plan.interval_bound <= 0.5 + 1e-12


def test_subdivide_validates():
    with pytest.raises(ValueError):
        jb.subdivide_horizon(1.0, 1.0, 2.5, 1.0)
    with pytest.raises(ValueError):
        jb.subdivide_horizon(1.0, 1.0, 1.5, -1.0)
    with pytest.raises(ValueError):
        jb.subdivide_horizon(1.0, 1.0, 1.5, 1.0, safety=1.5)


def test_pilot_calibration_then_chained_convergence():
    # pilot on a short seed problem, calibrate c_emp, split the long horizon:
    # every interval contracts with ratios below safety + 0.1
    q = 1.5
    marks = jb.make_mark_space([[1.0]], [1.0])
    gen = jb.make_generator("zv-coupled", {"cz": 2.0, "cv": 2.0},
                            marks=marks, d=1)
    term = jb.make_terminal("brownian-functional", {"kind": "square"},
                            marks=marks, d=1)
    kappa = gen.lipschitz_kappa

    pilot = jb.make_problem(0.5, 6, 1, marks, gen, term)
    _, pilot_tr = jb.picard_solve(pilot, "tree", tol=1e-12, max_iter=10,
                                  node_cap=None, check_assumptions=False)
    r_hat = max(pilot_tr.ratios)
    assert r_hat < 1
    c_emp = r_hat / (kappa * 0.5 ** (1 - q / 2))

    plan = jb.subdivide_horizon(8.0, kappa, q, c_emp, safety=0.8)
    assert plan.k_intervals > 1
    prob = jb.make_problem(8.0, 4 * plan.k_intervals, 1, marks, gen, term)
    sol, traces = jb.chained_solve(prob, plan, "tree", tol=1e-9, max_iter=25,
                                   node_cap=None)
    assert all(t.converged for t in traces)
    worst = max((max(t.ratios) if t.ratios else 0.0) for t in traces)
    assert worst <= plan.safety + 0.1


def test_chained_k1_identical_to_picard():
    prob = _coupled_problem(0.5, 0.5, 1.0, 8)
    tree = jb.build_scenario_tree(prob.grid, prob.marks, 1)
    plan = jb.subdivide_horizon(1.0, 0.5, 1.5, c_emp=0.1, safety=0.9)
    assert plan.k_intervals == 1
    s1, _ = jb.chained_solve(prob, plan, "tree", tree=tree, tol=1e-10)
    s2, _ = jb.picard_solve(prob, "tree", tree=tree, tol=1e-10,
                            check_assumptions=False)
    assert all(np.array_equal(a, b) for a, b in zip(s1.y, s2.y))
    assert all(np.array_equal(a, b) for a, b in zip(s1.z, s2.z))


def test_chained_split_composes_exactly():
    # exact conditional expectations compose across the boundary (tower
    # property): K=2 and K=1 agree to fp on a linear problem
    marks = jb.make_mark_space([[1.0]], [1.0])
    gen = jb.make_generator("affine", {"b": [0.25]}, marks=marks, d=1)
    term = jb.make_terminal("brownian-functional", {"kind": "linear"},
                            marks=marks, d=1)
    prob = jb.make_problem(1.0, 8, 1, marks, gen, term)
    tree = jb.build_scenario_tree(prob.grid, marks, 1)
    plan2 = jb.SubdivisionPlan(np.array([0.0, 0.5, 1.0]), 1.5, 0.25, 1.0,
                               0.9, 0.2)
    s2, _ = jb.chained_solve(prob, plan2, "tree", tree=tree, tol=1e-12)
    s1, _ = jb.picard_solve(prob, "tree", tree=tree, tol=1e-12,
                            check_assumptions=False)
    assert abs(s2.y0 - s1.y0) <= 1e-10
    assert all(np.allclose(a, b, atol=1e-10)
               for a, b in zip(s1.y, s2.y))


def test_chained_mc_on_one_batch_matches_interval_solves():
    # K=2 on one shared batch representation, bit for bit the same as two
    # interval solves that each set up their own
    prob = _coupled_problem(0.4, 0.4, 1.0, 8)
    batch = jb.simulate_paths(prob.grid, prob.marks, 1, 2000, seed=11)
    plan = jb.SubdivisionPlan(np.array([0.0, 0.5, 1.0]), 1.5, 0.8, 1.0,
                              0.9, 0.2)
    kw = {"tol": 1e-10, "max_iter": 15, "check_assumptions": False}
    sol, traces = jb.chained_solve(prob, plan, "mc", batch=batch, **kw)
    hi, tr_hi = jb.picard_solve(prob, "mc", batch=batch, k_lo=4, k_hi=8, **kw)
    lo, tr_lo = jb.picard_solve(prob, "mc", batch=batch, k_lo=0, k_hi=4,
                                terminal_values=hi.y[0], **kw)
    assert [t.dist for t in traces] == [tr_hi.dist, tr_lo.dist]
    assert np.array_equal(sol.y, lo.y[:-1] + hi.y)
    assert np.array_equal(sol.z, list(lo.z) + list(hi.z))
    assert np.array_equal(sol.v, list(lo.v) + list(hi.v))
    assert sol.y0 == lo.y0


def test_ladder_mc_rungs_match_standalone_solves(monkeypatch):
    # every rung runs on one batch representation, which builds each step's
    # regression basis once; each rung's y0 is the standalone solve's
    prob = _coupled_problem(0.4, 0.4, 1.0, 10, term_kind="exp")
    batch = jb.simulate_paths(prob.grid, prob.marks, 1, 3000, seed=5)
    from jumpbsde import solver
    built = []
    basis = solver._StepBasis

    def counted(states, degree, step):
        built.append(step)
        return basis(states, degree, step)
    monkeypatch.setattr(solver, "_StepBasis", counted)
    rep = jb.truncation_ladder_solve(prob, [1, 2, 8], "mc", batch=batch)
    assert sorted(built) == list(range(1, 10))
    for lev in rep.levels:
        sol, _ = jb.picard_solve(jb.truncate_problem(prob, lev["n"]), "mc",
                                 batch=batch, check_assumptions=False)
        assert sol.y0 == lev["y0"]
    assert len({lev["y0"] for lev in rep.levels}) == 3


def test_chained_requires_divisible_grid():
    prob = _coupled_problem(0.5, 0.5, 1.0, 7)
    plan = jb.SubdivisionPlan(np.array([0.0, 0.5, 1.0]), 1.5, 0.5, 1.0,
                              0.9, 0.2)
    with pytest.raises(ValueError, match="divisible"):
        jb.chained_solve(prob, plan, "tree", node_cap=None)


# ---------------------------------------------------------------------------
# truncation ladder
# ---------------------------------------------------------------------------

def test_ladder_bounded_data_all_rows_identical():
    marks = jb.make_mark_space([[1.0]], [1.0])
    gen = jb.make_generator("affine", {}, marks=marks, d=1)
    term = jb.make_terminal("constant", {"value": 0.5}, marks=marks, d=1)
    prob = jb.make_problem(1.0, 6, 1, marks, gen, term)
    rep = jb.truncation_ladder_solve(prob, [1, 2, 4], "tree")
    assert all(lev["y0"] == 0.5 for lev in rep.levels)
    assert all(p["measured_d_norm"] == 0.0 for p in rep.pairs)
    assert rep.cauchy


def test_ladder_lognormal_tree():
    # xi = exp(B_1), f = 0: Y^n_0 = E[clamp(xi, n)] increases to e^{1/2};
    # class-D distances obey the clamp-tail bound, whose closed form is
    # e^{1/2} Phi(1 - ln n)
    marks = jb.make_mark_space([[1.0]], [0.5])
    gen = jb.make_generator("affine", {}, marks=marks, d=1)
    term = jb.make_terminal("brownian-functional", {"kind": "exp"},
                            marks=marks, d=1)
    prob = jb.make_problem(1.0, 100, 1, marks, gen, term)
    tree = jb.build_scenario_tree(prob.grid, marks, 1, node_cap=None)
    rep = jb.truncation_ladder_solve(prob, [1, 2, 4, 8, 16], "tree", tree=tree)
    y0 = [lev["y0"] for lev in rep.levels]
    assert all(b >= a for a, b in zip(y0, y0[1:]))
    assert abs(y0[-1] - math.exp(0.5)) / math.exp(0.5) < 0.02
    for pair in rep.pairs:
        closed = math.exp(0.5) * normal_dist.cdf(1 - math.log(pair["n_lo"]))
        assert pair["measured_d_norm"] <= closed
        assert pair["within_bound"]


def test_ladder_mc_within_bound():
    marks = jb.make_mark_space([[1.0]], [0.5])
    gen = jb.make_generator("affine", {}, marks=marks, d=1)
    term = jb.make_terminal("brownian-functional", {"kind": "exp"},
                            marks=marks, d=1)
    prob = jb.make_problem(1.0, 20, 1, marks, gen, term)
    rep = jb.truncation_ladder_solve(prob, [2, 8], "mc", n_paths=20_000,
                                     seed=5)
    pair = rep.pairs[0]
    assert pair["measured_d_norm"] <= pair["bound"] + 3 * pair["bound_se"]


def test_ladder_rejects_bad_levels():
    marks = jb.make_mark_space([[1.0]], [1.0])
    gen = jb.make_generator("affine", {}, marks=marks, d=1)
    term = jb.make_terminal("constant", {"value": 1.0}, marks=marks, d=1)
    prob = jb.make_problem(1.0, 4, 1, marks, gen, term)
    with pytest.raises(ValueError):
        jb.truncation_ladder_solve(prob, [4, 2], "tree")
    with pytest.raises(ValueError):
        jb.truncation_ladder_solve(prob, [-1, 2], "tree")


def _closure_truncation(problem, n):
    """Reference truncation: a closure around the base driver that
    re-evaluates the zero section on every call, so the fixed point sees
    every row on every iteration."""
    from dataclasses import replace
    base_gen, base_term = problem.generator, problem.terminal

    def f_trunc(ctx, y, z, v, _f=base_gen.f):
        zero = base_gen.zero_section(ctx)
        return (np.asarray(_f(ctx, y, z, v), dtype=float)
                - zero + jb.q_n(zero, n))

    gen = replace(base_gen, f=f_trunc, name=f"truncated({base_gen.name})",
                  params={"base": base_gen.params or {}, "n": float(n)})
    term = replace(base_term,
                   fn=lambda ctx, _t=base_term.fn: jb.q_n(
                       np.asarray(_t(ctx)), n),
                   name=f"truncated({base_term.name})",
                   params={"base": base_term.params or {}, "n": float(n)})
    return replace(problem, generator=gen, terminal=term)


def _ladder_drivers(marks):
    # a built-in form whose zero section the clamps cut (const = 3), and a
    # custom driver whose zero section varies over the states
    smooth = jb.make_generator("lipschitz-smooth",
                               {"ay": 0.5, "bz": [0.25], "cv": 0.25},
                               marks=marks, d=1)
    affine = jb.make_generator("affine", {"a": 0.5, "const": 3.0,
                                          "b": [0.25], "c": [0.4]},
                               marks=marks, d=1)
    custom = jb.GeneratorSpec(
        f=lambda ctx, y, z, v: (smooth.f(ctx, y, z, v)
                                + 2.5 * np.sin(3.0 * ctx.brownian[:, 0])),
        lipschitz_kappa=smooth.lipschitz_kappa)
    return {"affine": affine, "custom": custom}


def _same_bits(a, b):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and np.array_equal(a.view(np.int64),
                                                 b.view(np.int64))


@pytest.mark.parametrize("method", ["tree", "mc"])
@pytest.mark.parametrize("driver", ["affine", "custom"])
def test_ladder_bound_truncation_matches_closure_bit_for_bit(
        monkeypatch, method, driver):
    # the ladder over the bound truncated driver gives the rungs and the
    # pair distances of the closure, bit for bit
    from jumpbsde import solver
    marks = jb.make_mark_space([[1.0]], [0.5])
    term = jb.make_terminal("brownian-functional", {"kind": "exp"},
                            marks=marks, d=1)
    N = 30 if method == "tree" else 10
    prob = jb.make_problem(1.0, N, 1, marks, _ladder_drivers(marks)[driver],
                           term)
    setup = ({"tree": jb.build_scenario_tree(prob.grid, marks, 1,
                                             node_cap=None)}
             if method == "tree" else
             {"batch": jb.simulate_paths(prob.grid, marks, 1, 1500, seed=3)})
    levels = [1, 2, 8]
    bound = jb.truncation_ladder_solve(prob, levels, method, **setup)
    monkeypatch.setattr(solver, "truncate_problem", _closure_truncation)
    closure = jb.truncation_ladder_solve(prob, levels, method, **setup)
    assert bound.to_json_dict() == closure.to_json_dict()
    for a, b in zip(bound.solutions, closure.solutions):
        for fa, fb in ((a.y, b.y), (a.z, b.z), (a.v, b.v)):
            assert all(_same_bits(x, y) for x, y in zip(fa, fb))
    # the clamps change the solution from rung to rung
    assert len({lev["y0"] for lev in bound.levels}) == 3
