"""Acceptance criteria, one test per criterion, one printed line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines. Every
tolerance is stated inline next to its assertion.
"""

import dataclasses
import json
import math
import os
import subprocess
import sys
import time

import numpy as np
from scipy.stats import norm as normal_dist

import jumpbsde as jb
from jumpbsde.estimates import ci_suite


def _report(num, title, detail, t0):
    print(f"ACCEPTANCE {num} PASS: {title} [{detail}] "
          f"({time.time() - t0:.1f}s)", flush=True)


def test_criterion_1_jump_integral_identities():
    t0 = time.time()
    grid = jb.make_time_grid(1.0, 10)
    marks = jb.make_mark_space([[1.0], [2.0]], [1.0, 1.0])
    batch = jb.simulate_paths(grid, marks, 1, 100_000, seed=7)

    V = jb.RandomField.from_mark_values([1.0, -0.5], grid, marks,
                                        batch.n_paths)
    res = jb.poisson_integral_compensated(V, batch)

    # quadratic-variation identity: exact per path
    _, per_mark = batch.jump_counts()
    qv_expected = per_mark[:, 0] * 1.0 + per_mark[:, 1] * 0.25
    assert np.allclose(res.terminal_qv, qv_expected, rtol=0, atol=1e-12)
    assert np.all(np.diff(res.qv_nodes, axis=1) >= 0)

    # jump identity: exact per path at every jump event
    assert jb.jump_identity_check(V, res, batch).all_passed

    # compensated-integral mean within 4 SE of 0 (Var = E int |V|^2 lambda ds)
    var = (1.0 ** 2 * 1.0 + 0.5 ** 2 * 1.0) * 1.0
    se = math.sqrt(var / batch.n_paths)
    mean = float(res.terminal.mean())
    assert abs(mean) < 4 * se

    # linearity: power-of-two scaling bit-exact; general combination 1e-12
    V2 = jb.RandomField(2.0 * V.values, grid, marks)
    assert np.array_equal(jb.poisson_integral_compensated(V2, batch).m_nodes,
                          2.0 * res.m_nodes)
    W = jb.RandomField.from_mark_values([0.3, 0.7], grid, marks, batch.n_paths)
    mixed = jb.RandomField(0.7 * V.values - 1.3 * W.values, grid, marks)
    lhs = jb.poisson_integral_compensated(mixed, batch).m_nodes
    rhs = (0.7 * res.m_nodes
           - 1.3 * jb.poisson_integral_compensated(W, batch).m_nodes)
    assert np.allclose(lhs, rhs, atol=1e-12)

    assert time.time() - t0 < 30
    _report(1, "jump-integral identities on 1e5 paths",
            f"mean(M_T)={mean:.2e} vs 4SE={4 * se:.2e}; QV and jump "
            "identities exact", t0)


def test_criterion_2_tree_oracle_first_order():
    t0 = time.time()
    marks = jb.make_mark_space([[1.0]], [1.0])
    gen = jb.make_generator("affine", {"a": 0.5}, marks=marks, d=1)
    term = jb.make_terminal("constant", {"value": 1.0}, marks=marks, d=1)
    exact = math.exp(0.5)
    errs = {}
    for N in (100, 200):
        prob = jb.make_problem(1.0, N, 1, marks, gen, term)
        tree = jb.build_scenario_tree(prob.grid, marks, 1, node_cap=None)
        errs[N] = abs(jb.solve_tree(prob, tree).y0 - exact)
    assert errs[100] / exact < 0.01          # within 1% of e^{1/2}
    ratio = errs[100] / errs[200]
    assert 1.7 <= ratio <= 2.3               # first-order in dt
    assert time.time() - t0 < 10
    _report(2, "tree oracle ODE instance",
            f"rel err {errs[100] / exact:.2e} at N=100; halving ratio "
            f"{ratio:.3f}", t0)


def test_criterion_3_martingale_representation():
    t0 = time.time()
    marks = jb.make_mark_space([[1.0]], [2.0])
    gen = jb.make_generator("affine", {}, marks=marks, d=1)

    # xi = B_T on the binomial tree: Z = 1 (fp rounding), V = 0 bitwise
    term_b = jb.make_terminal("brownian-functional", {"kind": "linear"},
                              marks=marks, d=1)
    prob_b = jb.make_problem(1.0, 8, 1, marks, gen, term_b)
    tree = jb.build_scenario_tree(prob_b.grid, marks, 1)
    sol_b = jb.solve_tree(prob_b, tree)
    z_err = max(float(np.max(np.abs(lv - 1.0))) for lv in sol_b.z_levels)
    assert z_err < 1e-12
    assert all(np.all(lv == 0.0) for lv in sol_b.v_levels)

    # xi = compensated count: V = 1 (fp rounding), Z = 0 bitwise; |Y0| is the
    # one-jump-per-step lumping bias, shrinking at first order under halving
    term_j = jb.make_terminal("jump-count", {"compensated": True},
                              marks=marks, d=1)
    y0 = {}
    for N in (8, 16):
        prob_j = jb.make_problem(1.0, N, 1, marks, gen, term_j)
        tree_j = jb.build_scenario_tree(prob_j.grid, marks, 1, node_cap=None)
        sol_j = jb.solve_tree(prob_j, tree_j)
        v_err = max(float(np.max(np.abs(lv - 1.0))) for lv in sol_j.v_levels)
        assert v_err < 1e-12
        assert all(np.all(lv == 0.0) for lv in sol_j.z_levels)
        y0[N] = abs(sol_j.y0)
    assert 1.7 <= y0[8] / y0[16] <= 2.3
    _report(3, "martingale representation on the tree",
            f"|Z-1|<=1e-12, V bitwise 0; V=1 within 1e-12, bias ratio "
            f"{y0[8] / y0[16]:.3f}", t0)


def test_criterion_4_mc_matches_tree():
    t0 = time.time()
    marks = jb.make_mark_space([[1.0]], [0.1])   # small lambda*dt: lumping
    gen = jb.make_generator("affine", {"a": 0.5}, marks=marks, d=1)
    term = jb.make_terminal("state-linear",
                            {"brownian_weights": [1.0], "jump_weights": [0.7],
                             "compensated": True, "shift": 1.0},
                            marks=marks, d=1)
    prob = jb.make_problem(1.0, 2, 1, marks, gen, term)
    tree = jb.build_scenario_tree(prob.grid, marks, 1)
    y_tree = jb.solve_tree(prob, tree).y0
    reps = []
    for seed in range(8):
        batch = jb.simulate_paths(prob.grid, marks, 1, 10_000, seed=seed)
        reps.append(jb.solve_mc_regression(prob, batch, basis_degree=2).y0)
    se = float(np.std(reps, ddof=1))
    diff = abs(reps[0] - y_tree)
    assert diff <= 3 * se
    assert time.time() - t0 < 10
    _report(4, "regression solver matches tree oracle (N=2, 1e4 paths)",
            f"|Y0_mc - Y0_tree| = {diff:.4f} <= 3 SE = {3 * se:.4f}", t0)


def test_criterion_5_picard_contraction_and_subdivision():
    t0 = time.time()
    marks = jb.make_mark_space([[1.0]], [1.0])
    term = jb.make_terminal("brownian-functional", {"kind": "square"},
                            marks=marks, d=1)

    # (a) short horizon: geometric envelope dist_n <= 1.5 dist_1 r^{n-1},
    #     r taken as the first measured ratio
    gen_s = jb.make_generator("zv-coupled", {"cz": 2.0, "cv": 2.0},
                              marks=marks, d=1)
    prob_s = jb.make_problem(0.5, 6, 1, marks, gen_s, term)
    _, tr_s = jb.picard_solve(prob_s, "tree", tol=1e-12, max_iter=12,
                              node_cap=None)
    assert tr_s.converged
    r1 = tr_s.dist[1] / tr_s.dist[0]
    assert r1 < 1
    for n, d in enumerate(tr_s.dist):
        assert d <= 1.5 * tr_s.dist[0] * r1 ** n + 1e-30

    # (b) long horizon (kappa C T^{1-q/2} large): divergence report
    gen_l = jb.make_generator("zv-coupled", {"cz": 5.0, "cv": 5.0},
                              marks=marks, d=1)
    prob_l = jb.make_problem(10.0, 60, 1, marks, gen_l, term)
    _, tr_l = jb.picard_solve(prob_l, "tree", max_iter=12, node_cap=None)
    assert tr_l.diverged and "subdivide" in tr_l.message

    # (c) pilot-calibrated subdivision restores convergence (kappa = 2 family)
    q = 1.5
    kappa = gen_s.lipschitz_kappa
    pilot = jb.make_problem(0.5, 6, 1, marks, gen_s, term)
    _, tr_p = jb.picard_solve(pilot, "tree", tol=1e-12, max_iter=10,
                              node_cap=None, check_assumptions=False)
    c_emp = max(tr_p.ratios) / (kappa * 0.5 ** (1 - q / 2))
    plan = jb.subdivide_horizon(8.0, kappa, q, c_emp, safety=0.8)
    prob_c = jb.make_problem(8.0, 4 * plan.k_intervals, 1, marks, gen_s, term)
    _, traces = jb.chained_solve(prob_c, plan, "tree", tol=1e-9, max_iter=25,
                                 node_cap=None)
    assert all(t.converged for t in traces)
    assert time.time() - t0 < 60
    _report(5, "Picard mechanism",
            f"envelope with r1={r1:.3f}; divergence ratios "
            f"{[round(r, 2) for r in tr_l.ratios[-3:]]}; chained K="
            f"{plan.k_intervals} all contract", t0)


def test_criterion_6_truncation_ladder():
    t0 = time.time()
    marks = jb.make_mark_space([[1.0]], [0.5])
    gen = jb.make_generator("affine", {}, marks=marks, d=1)
    term = jb.make_terminal("brownian-functional", {"kind": "exp"},
                            marks=marks, d=1)
    prob = jb.make_problem(1.0, 100, 1, marks, gen, term)
    tree = jb.build_scenario_tree(prob.grid, marks, 1, node_cap=None)
    rep = jb.truncation_ladder_solve(prob, [1, 2, 4, 8, 16], "tree", tree=tree)

    # measured class-D distances against the closed-form lognormal tail mean
    # E[xi 1{xi > n}] = e^{1/2} Phi(1 - ln n); tree estimator has SE = 0
    for pair in rep.pairs:
        closed = math.exp(0.5) * normal_dist.cdf(1 - math.log(pair["n_lo"]))
        assert pair["measured_d_norm"] <= closed + 3 * pair["bound_se"]

    y0 = [lev["y0"] for lev in rep.levels]
    assert all(b >= a for a, b in zip(y0, y0[1:]))     # monotone in n
    rel = abs(y0[-1] - math.exp(0.5)) / math.exp(0.5)
    assert rel < 0.02                                   # within 2% of e^{1/2}
    assert time.time() - t0 < 60
    _report(6, "class-D truncation ladder for exp(B_1)",
            f"all {len(rep.pairs)} pairs under the closed-form tail bound; "
            f"Y0 -> {y0[-1]:.4f} ({100 * rel:.2f}% from e^0.5)", t0)


def test_criterion_7_uniqueness():
    t0 = time.time()
    marks = jb.make_mark_space([[1.0]], [1.0])
    term = jb.make_terminal("brownian-functional", {"kind": "linear"},
                            marks=marks, d=1)

    # coupled contracting instance: two initializations within 2 tol in S^q
    gen_c = jb.make_generator("affine", {"b": [0.25]}, marks=marks, d=1)
    prob_c = jb.make_problem(1.0, 8, 1, marks, gen_c, term)
    tol = 1e-10
    res = jb.uniqueness_experiment(prob_c, "tree", tol=tol)
    assert res["conclusive"] and res["passed"]
    assert res["max_pairwise_sq_distance"] <= 2 * tol

    # decoupled driver: the inner solve ignores the initialization entirely
    gen_d = jb.make_generator("affine", {"a": 0.5}, marks=marks, d=1)
    prob_d = jb.make_problem(1.0, 8, 1, marks, gen_d, term)
    res_d = jb.uniqueness_experiment(prob_d, "tree", tol=tol)
    assert res_d["max_pairwise_sq_distance"] == 0.0    # exactly
    assert time.time() - t0 < 30
    _report(7, "uniqueness under perturbed initializations",
            f"coupled dist {res['max_pairwise_sq_distance']:.2e} <= 2 tol; "
            "decoupled exact", t0)


def test_criterion_8_a_priori_estimates():
    t0 = time.time()
    records = ci_suite()
    assert len(records) == 12
    consts = [max(r["zv"].implied_constant, r["full"].implied_constant)
              for r in records]
    assert all(np.isfinite(consts))
    assert all(r["zv"].passed and r["full"].passed for r in records)

    # xi = c, f = 0: implied constant exactly 1 (full) and exactly 0 with a
    # defined pass (zv, lhs = 0)
    marks = jb.make_mark_space([[1.0]], [1.0])
    gen0 = jb.make_generator("affine", {}, marks=marks, d=1)
    term_c = jb.make_terminal("constant", {"value": 2.0}, marks=marks, d=1)
    prob0 = jb.make_problem(1.0, 6, 1, marks, gen0, term_c)
    tree = jb.build_scenario_tree(prob0.grid, marks, 1)
    sol0 = jb.solve_tree(prob0, tree)
    assert jb.verify_full_estimate(sol0, prob0, 2.0).implied_constant == 1.0
    zv0 = jb.verify_zv_estimate(sol0, prob0, 2.0)
    assert zv0.implied_constant == 0.0 and zv0.passed

    # scale covariance bit-exact on tree solves (p = 2, data scaled by 2)
    gen1 = jb.make_generator("affine", {"a": 0.5, "b": [0.25], "c": [0.4]},
                             marks=marks, d=1)
    term1 = jb.make_terminal("state-linear",
                             {"brownian_weights": [1.0], "jump_weights": [0.5],
                              "compensated": True}, marks=marks, d=1)
    prob1 = jb.make_problem(1.0, 6, 1, marks, gen1, term1)
    term2 = dataclasses.replace(term1,
                                fn=lambda ctx, _f=term1.fn: 2.0 * _f(ctx))
    prob2 = dataclasses.replace(prob1, terminal=term2)
    s1, s2 = jb.solve_tree(prob1, tree), jb.solve_tree(prob2, tree)
    r1 = jb.verify_full_estimate(s1, prob1, 2.0)
    r2 = jb.verify_full_estimate(s2, prob2, 2.0)
    assert r2.implied_constant == r1.implied_constant   # bit-exact
    assert time.time() - t0 < 120
    _report(8, "a priori estimates (12-instance suite)",
            f"max implied constant {max(consts):.4f}; trivial instance "
            "implied exactly 1; scale covariance bit-exact", t0)


def test_criterion_9_reproducibility(tmp_path, monkeypatch):
    t0 = time.time()
    cfg = {
        "schema": "jumpbsde/run-config/v1",
        "problem": {
            "horizon": 1.0, "dim": 1,
            "marks": {"marks": [[1.0]], "intensities": [1.0]},
            "generator": {"form": "zv-coupled",
                          "params": {"cz": 0.4, "cv": 0.4}},
            "terminal": {"form": "brownian-functional",
                         "params": {"kind": "square"}},
        },
        "method": "mc", "grid_steps": 8, "n_paths": 2000, "seed": 13,
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))

    def run(out, threads):
        env = {**os.environ, "OMP_NUM_THREADS": str(threads),
               "OPENBLAS_NUM_THREADS": str(threads),
               "MKL_NUM_THREADS": str(threads)}
        res = subprocess.run(
            [sys.executable, "-m", "jumpbsde.cli", "solve", "--config",
             str(cfg_path), "--out", str(out)],
            capture_output=True, text=True, env=env)
        assert res.returncode == 0, res.stderr
        files = {}
        for name in sorted(os.listdir(out)):
            with open(os.path.join(out, name), "rb") as fh:
                files[name] = fh.read()
        return files

    f1 = run(tmp_path / "r1", 1)
    f2 = run(tmp_path / "r2", 4)
    assert sorted(f1) == sorted(f2)
    for name, blob in f1.items():
        if name.endswith(".json"):
            b1 = json.dumps(json.loads(blob)["body"], sort_keys=True)
            b2 = json.dumps(json.loads(f2[name])["body"], sort_keys=True)
            assert b1.encode() == b2.encode()   # byte-identical bodies
        else:
            assert blob == f2[name]             # CSVs byte-identical

    # regenerating from the embedded config reproduces the body (it has no
    # out_dir, so the re-run writes where JUMPBSDE_OUT points)
    from jumpbsde import cli as jcli
    monkeypatch.setenv("JUMPBSDE_OUT", str(tmp_path / "rerun"))
    body = json.loads(f1[[n for n in f1 if n.endswith(".json")][0]])["body"]
    emb = tmp_path / "embedded.json"
    emb.write_text(json.dumps(body["config"]))
    code, body2, _ = jcli.cmd_solve(jcli.load_config(str(emb)))
    assert code == 0
    assert (json.dumps(body, sort_keys=True)
            == json.dumps(body2, sort_keys=True))
    _report(9, "byte-identical reports",
            "bodies and CSVs equal across OMP/BLAS thread counts 1 vs 4; "
            "embedded-config rerun reproduces the body", t0)
