"""The per-step implicit fixed point against the whole-array reference loop."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import jumpbsde as jb
from jumpbsde.errors import NumericError
from jumpbsde.generators import truncate_problem
from jumpbsde.solver import _fixpoint_iterations, _solve_implicit
from test_picard_exact import FORMS, _problem

DT = 0.5
KAPPA_DT = 0.1


def _reference(cond_mean, f_of_y, dt, kappa_dt):
    """The whole-array iteration: every row evaluated on every iteration."""
    n_iter = _fixpoint_iterations(kappa_dt)
    y = cond_mean
    f_val = f_of_y(y)
    for _ in range(n_iter):
        y_next = cond_mean + f_val * dt
        f_next = f_of_y(y_next)
        if np.array_equal(y_next, y):
            y, f_val = y_next, f_next
            break
        y, f_val = y_next, f_next
    resid = np.abs(y - (cond_mean + f_val * dt))
    scale = np.abs(y) + np.abs(cond_mean) + np.abs(f_val * dt)
    if not np.all(resid <= 512.0 * np.finfo(float).eps * scale):
        raise NumericError("per-step fixed point not converged")
    return y


def _recording(f_of_y):
    """The same driver, logging how many rows each call evaluates."""
    sizes = []

    def logged(y, rows=None):
        sizes.append(y.size)
        return f_of_y(y) if rows is None else f_of_y(y, rows)

    logged.row_wise = getattr(f_of_y, "row_wise", False)
    return logged, sizes


def _smooth_bound(n, seed):
    """A built-in bound driver and cond_mean values spread over 1e-8 .. 1e2."""
    marks = jb.make_mark_space([[1.0]], [1.0])
    spec = jb.make_generator("lipschitz-smooth",
                             {"ay": 0.2, "bz": [0.25], "cv": 0.25},
                             marks=marks, d=1)
    rng = np.random.default_rng(seed)
    ctx = jb.StateContext(0.0, np.zeros((n, 1)), np.zeros((n, 1)), marks, 2.0)
    bound = spec.bind(ctx, rng.normal(size=(n, 1)), rng.normal(size=(n, 1)))
    cond_mean = rng.normal(size=n) * 10.0 ** rng.uniform(-8, 2, size=n)
    return bound, cond_mean


def _settle_iterations(cond_mean, f_of_y, dt, n_iter):
    """First iteration at which each row repeats its value bit for bit."""
    y, first = cond_mean, np.full(cond_mean.size, -1)
    for it in range(n_iter):
        y_next = cond_mean + f_of_y(y) * dt
        first[(first < 0) & (y_next.view(np.int64) == y.view(np.int64))] = it
        y = y_next
    return first


def _same_bits(a, b):
    return np.array_equal(a.view(np.int64), b.view(np.int64))


def test_rows_settling_at_different_iterations_match_reference():
    bound, cond_mean = _smooth_bound(4000, seed=11)
    n_iter = _fixpoint_iterations(KAPPA_DT)
    settle = _settle_iterations(cond_mean, bound, DT, n_iter)
    assert len(set(settle.tolist())) >= 4
    logged, sizes = _recording(bound)
    out = _solve_implicit(cond_mean, logged, DT, KAPPA_DT)
    assert _same_bits(out, _reference(cond_mean, bound, DT, KAPPA_DT))
    # settled rows stopped being evaluated
    assert sizes[0] == cond_mean.size and sizes[-1] < cond_mean.size // 2


A = 1.0
B = np.nextafter(1.0, 2.0)


def _cycling(y, rows=None):
    """Row-wise driver: 0.25 sin(y), except on two two-cycles at dt 0.5.

    From cond_mean 0.5, y alternates between 1.0 and the next float up; from
    cond_mean -0.0, f(y) = -y alternates y between -0.0 and +0.0, which are
    equal as numbers but not bit for bit.
    """
    out = 0.25 * np.sin(y)
    out[y == 0.5] = A
    out[y == A] = 2.0 * B - 1.0
    out[y == B] = A
    out[y == 0.0] = -y[y == 0.0]
    return out


_cycling.row_wise = True


@pytest.mark.parametrize("n_rest", [0, 999])
def test_two_cycle_row_runs_the_full_count(n_rest):
    _, rest = _smooth_bound(n_rest, seed=5)
    cond_mean = np.concatenate(([0.5, -0.0], rest))
    n_iter = _fixpoint_iterations(KAPPA_DT)
    logged, sizes = _recording(_cycling)
    out = _solve_implicit(cond_mean, logged, DT, KAPPA_DT)
    ref = _reference(cond_mean, _cycling, DT, KAPPA_DT)
    assert _same_bits(out, ref)
    assert out[0] in (A, B) and out[1] == 0.0
    assert len(sizes) == n_iter + 1


def test_nan_row_raises_in_both_loops():
    bound, cond_mean = _smooth_bound(500, seed=2)
    cond_mean[123] = np.nan
    with pytest.raises(NumericError):
        _reference(cond_mean, bound, DT, KAPPA_DT)
    with pytest.raises(NumericError):
        _solve_implicit(cond_mean, bound, DT, KAPPA_DT)


@pytest.mark.parametrize("row_wise", [True, False])
def test_a_nan_row_that_repeats_its_bits_raises(row_wise):
    # f = 0: every row, the NaN one too, repeats its bits at the first
    # update, so the loop ends there with nothing left to evaluate, and the
    # check on every row fails
    def zero(y, rows=None):
        return np.zeros_like(y)

    zero.row_wise = row_wise
    with pytest.raises(NumericError, match=r"max residual nan\)"):
        _solve_implicit(np.array([1.0, np.nan, 2.0]), zero, DT, KAPPA_DT)


def test_iterates_equal_in_value_end_the_loop():
    # from cond_mean -0.0 the first update gives +0.0, equal in value: the
    # loop ends there, as the whole-array loop does, where it would
    # otherwise alternate the sign of zero to the end of its budget
    cond_mean = np.array([-0.0])
    logged, sizes = _recording(_cycling)
    out = _solve_implicit(cond_mean, logged, DT, KAPPA_DT)
    assert _same_bits(out, _reference(cond_mean, _cycling, DT, KAPPA_DT))
    assert out.view(np.int64)[0] == 0 and len(sizes) == 2


def test_custom_driver_sees_every_row_on_every_iteration():
    bound, cond_mean = _smooth_bound(3000, seed=8)

    def custom(y):
        return bound(y)

    logged, sizes = _recording(custom)
    out = _solve_implicit(cond_mean, logged, DT, KAPPA_DT)
    assert _same_bits(out, _reference(cond_mean, custom, DT, KAPPA_DT))
    assert set(sizes) == {cond_mean.size}


def _wide_cycle(y, rows=None):
    """Row-wise driver: 0.25 sin(y), except that from cond_mean 0.5 at dt
    0.5 y alternates between 1.0 and 2.0, a residual of 1 that never
    settles."""
    out = 0.25 * np.sin(y)
    out[y == 0.5] = 1.0
    out[y == 1.0] = 3.0
    out[y == 2.0] = 1.0
    return out


_wide_cycle.row_wise = True


@pytest.mark.parametrize("n_rest", [0, 999])
def test_unsettled_row_reports_the_whole_array_residual(n_rest):
    # with the other rows settled and dropped (n_rest 999), the check reads
    # only the rows still moving; verdict and max residual are those of
    # every row
    _, rest = _smooth_bound(n_rest, seed=5)
    cond_mean = np.concatenate(([0.5], rest))
    with pytest.raises(NumericError):
        _reference(cond_mean, _wide_cycle, DT, KAPPA_DT)
    with pytest.raises(NumericError, match=r"max residual 1\.000e\+00\)"):
        _solve_implicit(cond_mean, _wide_cycle, DT, KAPPA_DT)


@pytest.mark.parametrize("row_wise", [True, False])
def test_overflowing_step_raises_without_a_warning(row_wise):
    # y overflows to inf and repeats its bits there: the residual inf - inf
    # is nan, so the step fails as it did before the zero-residual shortcut,
    # and numpy warns of nothing
    bound, cond_mean = _smooth_bound(200, seed=4)
    cond_mean[7] = 1e308

    def doubling(y, rows=None):
        out = bound(y) if rows is None else bound(y, rows)
        return np.where(np.abs(y) > 1e300, 4.0 * y, out)

    doubling.row_wise = row_wise
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericError, match=r"max residual nan\)"):
            _solve_implicit(cond_mean, doubling, DT, KAPPA_DT)


C = 4.0
D = np.nextafter(4.0, 5.0)


def _late_cycling(y, rows=None):
    """``_cycling``, plus a two-cycle that starts one iteration later: from
    cond_mean 2.0 at dt 0.5, y goes 3.0, then alternates between 4.0 and
    the next float up."""
    out = _cycling(y)
    out[y == 2.0] = 2.0
    out[y == 3.0] = 4.0
    out[y == C] = 2.0 * D - 4.0
    out[y == D] = C
    return out


_late_cycling.row_wise = True


@pytest.mark.parametrize("kappa_dt", [0.18, 0.2], ids=["even", "odd"])
@pytest.mark.parametrize("extra", ["none", "signed-zero", "nan"])
def test_two_cycles_end_at_their_budget_value(kappa_dt, extra):
    # rows that two-cycle between different values, in either phase and
    # under a budget of 24 or 25 iterations (the other rows settle within
    # it), end at the value the whole-array loop ends at, after the whole
    # budget, alone or beside a -0.0/+0.0 row (equal values); a NaN row
    # still fails
    n_iter = _fixpoint_iterations(kappa_dt)
    assert n_iter == {0.18: 24, 0.2: 25}[kappa_dt]
    _, rest = _smooth_bound(999, seed=5)
    cond_mean = np.concatenate(([0.5, 2.0, 0.5],
                                {"none": [], "signed-zero": [-0.0],
                                 "nan": [np.nan]}[extra], rest))
    logged, sizes = _recording(_late_cycling)
    if extra == "nan":
        with pytest.raises(NumericError):
            _reference(cond_mean, _late_cycling, DT, kappa_dt)
        with pytest.raises(NumericError):
            _solve_implicit(cond_mean, logged, DT, kappa_dt)
        return
    out = _solve_implicit(cond_mean, logged, DT, kappa_dt)
    ref = _reference(cond_mean, _late_cycling, DT, kappa_dt)
    assert _same_bits(out, ref)
    # the two cycles end in opposite phases
    assert out[0] in (A, B) and (out[0] == A) == (out[1] == D)
    assert out[2] == out[0]
    assert len(sizes) == n_iter + 1


def test_two_cycle_rows_keep_the_residual_check():
    # a two-cycle between far-apart values runs the whole budget, and its
    # residual fails the check
    _, rest = _smooth_bound(999, seed=6)
    cond_mean = np.concatenate(([0.5], rest))
    logged, sizes = _recording(_wide_cycle)
    with pytest.raises(NumericError, match=r"max residual 1\.000e\+00\)"):
        _solve_implicit(cond_mean, logged, DT, 0.2)
    assert len(sizes) == _fixpoint_iterations(0.2) + 1


@st.composite
def _bound_cases(draw):
    """A built-in form or its truncation bound on random states and (z, v),
    cond_mean values of magnitude 1e-8 .. 1e2 with some signed zeros, and
    a kappa*dt whose budget is 1 or 3 .. 30 iterations."""
    form = draw(st.sampled_from(sorted(FORMS)))
    d, m = draw(st.sampled_from([1, 2])), draw(st.sampled_from([1, 2]))
    n = draw(st.integers(1, 400))
    problem = _problem(form, d, m, 4)
    level = draw(st.sampled_from([None, 0.5, 4.0]))
    if level is not None:
        problem = truncate_problem(problem, level)
    budget = draw(st.sampled_from([1] + list(range(3, 31))))
    # n = ceil(53 ln 2 / -ln(kappa*dt)) + 2 iterations, kappa*dt = 0 one
    kappa_dt = (0.0 if budget == 1
                else math.exp(-53.0 * math.log(2.0) / (budget - 2.5)))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    ctx = problem.context(rng.uniform(), rng.normal(size=(n, d)),
                          rng.integers(0, 4, size=(n, m)).astype(float))
    bound = problem.generator.bind(ctx, rng.normal(size=(n, d)),
                                   rng.normal(size=(n, m)))
    cond_mean = rng.normal(size=n) * 10.0 ** rng.uniform(-8, 2, size=n)
    zeros = rng.random(n) < draw(st.sampled_from([0.0, 0.1, 0.9]))
    cond_mean[zeros] = np.where(rng.random(n) < 0.5, 0.0, -0.0)[zeros]
    # the driver's y-modulus times dt is at most kappa*dt
    dt = kappa_dt / problem.generator.lipschitz_kappa
    return cond_mean, bound, dt, kappa_dt, budget


@settings(max_examples=150, deadline=None)
@given(_bound_cases())
def test_bound_forms_match_the_reference_bit_for_bit(case):
    cond_mean, bound, dt, kappa_dt, budget = case
    assert _fixpoint_iterations(kappa_dt) == budget
    try:
        ref = _reference(cond_mean, bound, dt, kappa_dt)
    except NumericError:
        with pytest.raises(NumericError):
            _solve_implicit(cond_mean, bound, dt, kappa_dt)
    else:
        assert _same_bits(_solve_implicit(cond_mean, bound, dt, kappa_dt),
                          ref)
