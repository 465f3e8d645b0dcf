"""Brownian/compensated-jump integrals, quadratic variation, jump identity."""

import dataclasses
import math

import numpy as np
import pytest

import jumpbsde as jb
from conftest import hand_batch


def test_brownian_integral_zero(unit_grid, single_mark):
    batch = jb.simulate_brownian(unit_grid, 1, 50, seed=1)
    M = jb.brownian_integral(np.zeros((50, 10, 1)), batch)
    assert np.array_equal(M, np.zeros((50, 11)))


def test_brownian_integral_telescopes(unit_grid):
    batch = jb.simulate_brownian(unit_grid, 1, 200, seed=2)
    M = jb.brownian_integral(np.ones((200, 10, 1)), batch)
    B = np.cumsum(batch.brownian_increments[:, :, 0], axis=1)
    assert np.allclose(M[:, 1:], B, atol=1e-14)
    assert np.all(M[:, 0] == 0.0)


def test_brownian_integral_martingale_mean(big_batch):
    M = jb.brownian_integral(np.ones((big_batch.n_paths, 10, 1)), big_batch)
    se = math.sqrt(1.0 / big_batch.n_paths)   # Var M_T = T = 1
    assert abs(M[:, -1].mean()) < 4 * se


def test_brownian_integral_shape_mismatch(unit_grid):
    batch = jb.simulate_brownian(unit_grid, 1, 5, seed=1)
    with pytest.raises(ValueError):
        jb.brownian_integral(np.ones((5, 9, 1)), batch)


# ---------------------------------------------------------------------------
# compensated jump integral
# ---------------------------------------------------------------------------

def test_compensated_zero_field(unit_grid, single_mark):
    batch = jb.simulate_poisson_measure(unit_grid, single_mark, 100, seed=3)
    V = jb.RandomField.constant(0.0, unit_grid, single_mark, 100)
    res = jb.poisson_integral_compensated(V, batch)
    assert np.array_equal(res.m_nodes, np.zeros((100, 11)))
    assert np.array_equal(res.qv_nodes, np.zeros((100, 11)))


def test_compensated_unit_field_unwinds(big_batch):
    V = jb.RandomField.constant(1.0, big_batch.grid, big_batch.marks,
                                big_batch.n_paths)
    res = jb.poisson_integral_compensated(V, big_batch)
    counts, _ = big_batch.jump_counts()
    assert np.allclose(res.terminal, counts - 2.0, atol=1e-12)


def test_compensated_mean_within_band(big_batch):
    # Var M_T = lambda T = 2
    V = jb.RandomField.constant(1.0, big_batch.grid, big_batch.marks,
                                big_batch.n_paths)
    res = jb.poisson_integral_compensated(V, big_batch)
    se = math.sqrt(2.0 / big_batch.n_paths)
    assert abs(res.terminal.mean()) < 4 * se


def test_isometry_at_p2(big_batch):
    # sample Var(M_T) within 5% of E int int |V|^2 lambda ds
    V = jb.RandomField.from_mark_values([1.5], big_batch.grid,
                                        big_batch.marks, big_batch.n_paths)
    res = jb.poisson_integral_compensated(V, big_batch)
    target = 1.5 ** 2 * 2.0
    assert abs(res.terminal.var() - target) < 0.05 * target


def test_quadratic_variation_counts(big_batch):
    V = jb.RandomField.constant(1.0, big_batch.grid, big_batch.marks,
                                big_batch.n_paths)
    qv = jb.quadratic_variation(V, big_batch)
    counts, _ = big_batch.jump_counts()
    assert np.array_equal(qv[:, -1], counts.astype(float))
    # scaling: V = c multiplies [M,M] by c^2 (c = 2 exactly)
    V2 = jb.RandomField.constant(2.0, big_batch.grid, big_batch.marks,
                                 big_batch.n_paths)
    qv2 = jb.quadratic_variation(V2, big_batch)
    assert np.array_equal(qv2, 4.0 * qv)
    # non-decreasing per path
    assert np.all(np.diff(qv, axis=1) >= 0)


def test_quadratic_variation_two_marks():
    # one jump at each mark, V(e_1)=2, V(e_2)=-3: [M,M]_T = 4 + 9 = 13
    grid = jb.make_time_grid(1.0, 4)
    marks = jb.make_mark_space([[1.0], [2.0]], [1.0, 1.0])
    batch = hand_batch(grid, marks, [[[0.3, 0], [0.6, 1]]])
    V = jb.RandomField.from_mark_values([2.0, -3.0], grid, marks, 1)
    qv = jb.quadratic_variation(V, batch)
    assert qv[0, -1] == 13.0


def test_a_batch_with_no_jump_event():
    # M is minus the compensator, [M] = 0, and the at-jump records are empty
    grid = jb.make_time_grid(1.0, 4)
    marks = jb.make_mark_space([[1.0], [2.0]], [1.0, 3.0])
    batch = hand_batch(grid, marks, [[], [], []])
    values = np.arange(24.0).reshape(3, 4, 2) / 7.0 - 1.0
    V = jb.RandomField(values, grid, marks)
    res = jb.poisson_integral_compensated(V, batch)
    comp = np.zeros((3, 5))
    comp[:, 1:] = np.cumsum(values @ marks.intensities * grid.dt, axis=1)
    assert np.array_equal(res.m_nodes, -comp)
    assert np.array_equal(res.qv_nodes, np.zeros((3, 5)))
    assert np.array_equal(jb.quadratic_variation(V, batch), np.zeros((3, 5)))
    for a in (res.m_at_jumps, res.qv_at_jumps):
        assert a.dtype == np.float64 and a.shape == (0,)
    assert jb.jump_identity_check(V, res, batch).all_passed


def test_jump_identity_pass_and_tamper(unit_grid, single_mark):
    batch = jb.simulate_poisson_measure(unit_grid, single_mark, 500, seed=7)
    V = jb.RandomField.constant(1.0, unit_grid, single_mark, 500)
    res = jb.poisson_integral_compensated(V, batch)
    assert jb.jump_identity_check(V, res, batch).all_passed

    bad = res.m_nodes.copy()
    bad[37, 4] += 1e-6
    tampered = dataclasses.replace(res, m_nodes=bad)
    rep = jb.jump_identity_check(V, tampered, batch)
    assert not rep.all_passed
    assert rep.first_violation[0]["path"] == 37


def test_jump_identity_mark_norm_field(unit_grid, two_marks):
    # V(e_i) = |e_i| over a random batch: property holds path by path
    batch = jb.simulate_poisson_measure(unit_grid, two_marks, 2000, seed=7)
    V = jb.RandomField.from_mark_values(two_marks.mark_norms, unit_grid,
                                        two_marks, 2000)
    res = jb.poisson_integral_compensated(V, batch)
    assert jb.jump_identity_check(V, res, batch).all_passed
    # the jump increments really are the field values
    per_path = np.diff(batch.jump_offsets)
    vals = two_marks.mark_norms[batch.jump_mark_idx]
    assert np.array_equal(res.qv_at_jumps[np.cumsum(per_path)[per_path > 0] - 1],
                          np.add.reduceat(vals ** 2, batch.jump_offsets[:-1][per_path > 0]))


def test_linearity():
    grid = jb.make_time_grid(1.0, 5)
    marks = jb.make_mark_space([[1.0], [2.0]], [1.0, 2.0])
    batch = jb.simulate_poisson_measure(grid, marks, 300, seed=17)
    rng = np.random.default_rng(0)
    Va = jb.RandomField(rng.normal(size=(300, 5, 2)), grid, marks)
    Vb = jb.RandomField(rng.normal(size=(300, 5, 2)), grid, marks)
    Ma = jb.poisson_integral_compensated(Va, batch).m_nodes
    Mb = jb.poisson_integral_compensated(Vb, batch).m_nodes
    # power-of-two scaling is bit-exact
    M2a = jb.poisson_integral_compensated(
        jb.RandomField(2.0 * Va.values, grid, marks), batch).m_nodes
    assert np.array_equal(M2a, 2.0 * Ma)
    # general coefficients to fp accuracy
    Vc = jb.RandomField(0.7 * Va.values - 1.3 * Vb.values, grid, marks)
    Mc = jb.poisson_integral_compensated(Vc, batch).m_nodes
    assert np.allclose(Mc, 0.7 * Ma - 1.3 * Mb, atol=1e-12)


def test_lp_field_norm_examples(unit_grid, single_mark, two_marks):
    V0 = jb.RandomField.constant(0.0, unit_grid, single_mark, 10)
    assert jb.lp_field_norm(V0, 1.0) == 0.0
    V1 = jb.RandomField.constant(1.0, unit_grid, single_mark, 10)
    assert np.isclose(jb.lp_field_norm(V1, 1.0), 2.0)        # 1 * 2 * 1
    grid2 = jb.make_time_grid(2.0, 8)
    V2 = jb.RandomField.constant(1.0, grid2, two_marks, 10)
    assert np.isclose(jb.lp_field_norm(V2, 2.0), math.sqrt(8.0))
    with pytest.raises(ValueError):
        jb.lp_field_norm(V1, 0.5)


def test_field_batch_mismatch(unit_grid, single_mark, two_marks):
    batch = jb.simulate_poisson_measure(unit_grid, single_mark, 10, seed=1)
    V = jb.RandomField.constant(1.0, unit_grid, two_marks, 10)
    with pytest.raises(ValueError):
        jb.poisson_integral_compensated(V, batch)


def test_integral_result_json(unit_grid, single_mark):
    batch = jb.simulate_poisson_measure(unit_grid, single_mark, 5, seed=2)
    V = jb.RandomField.constant(1.0, unit_grid, single_mark, 5)
    doc = jb.poisson_integral_compensated(V, batch).to_json_dict()
    assert len(doc["terminal_values"]) == 5
    assert len(doc["terminal_quadratic_variation"]) == 5
