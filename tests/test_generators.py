"""Problem data, truncation clamp, and empirical assumption checks."""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import jumpbsde as jb
import reference
from jumpbsde import solver
from jumpbsde.generators import GeneratorSpec, q_n

finite = st.floats(allow_nan=False, allow_infinity=False,
                   min_value=-1e12, max_value=1e12)
levels = st.floats(min_value=1e-6, max_value=1e9)


def test_q_n_examples():
    assert q_n(0.5, 1) == 0.5
    assert q_n(-7.0, 3) == -3.0
    assert q_n(3.0, 3) == 3.0
    with pytest.raises(ValueError):
        q_n(1.0, 0)


@settings(max_examples=200, deadline=None)
@given(finite, finite, levels)
def test_q_n_is_1_lipschitz_odd_idempotent(x, y, n):
    assert abs(q_n(x, n) - q_n(y, n)) <= abs(x - y) * (1 + 1e-15)
    assert q_n(-x, n) == -q_n(x, n)
    assert q_n(q_n(x, n), n) == q_n(x, n)
    assert abs(q_n(x, n)) <= min(abs(x), n) + 1e-15


@settings(max_examples=100, deadline=None)
@given(finite, levels, levels)
def test_q_n_monotone_in_level(x, n1, n2):
    lo, hi = sorted((n1, n2))
    assert abs(q_n(x, lo)) <= abs(q_n(x, hi)) + 1e-15


def _basic_problem(marks=None, gen=None, term=None, T=1.0, N=4):
    marks = marks or jb.make_mark_space([[1.0]], [1.0])
    gen = gen or jb.make_generator("affine", {"a": 1.0}, marks=marks, d=1)
    term = term or jb.make_terminal("constant", {"value": 1.0}, marks=marks, d=1)
    return jb.make_problem(T, N, 1, marks, gen, term)


def test_truncate_terminal_clamps():
    marks = jb.make_mark_space([[1.0]], [1.0])
    vals = np.array([-5.0, 1.0, 9.0])
    term = jb.TerminalSpec(fn=lambda ctx: vals[:ctx.n], p=2.0)
    prob = _basic_problem(marks=marks, term=term)
    truncated = jb.truncate_problem(prob, 4)
    ctx = prob.context(1.0, np.zeros((3, 1)), np.zeros((3, 1)))
    assert np.array_equal(truncated.terminal(ctx), [-4.0, 1.0, 4.0])


def test_truncate_zero_section_and_lipschitz():
    # f(t,0) = 6 constant, n = 2: f_n(t,0) = 2; increments untouched
    marks = jb.make_mark_space([[1.0]], [1.0])
    gen = jb.make_generator("affine", {"a": 1.0, "const": 6.0}, marks=marks, d=1)
    prob = _basic_problem(marks=marks, gen=gen)
    truncated = jb.truncate_problem(prob, 2)
    ctx = prob.context(0.5, np.zeros((1, 1)), np.zeros((1, 1)))
    z0 = np.zeros((1, 1))
    v0 = np.zeros((1, 1))
    assert truncated.generator(ctx, np.zeros(1), z0, v0)[0] == 2.0
    # increments of f_n equal increments of f exactly
    for y1, y2 in ((0.0, 1.0), (-3.0, 7.0), (100.0, 101.5)):
        df = (gen(ctx, np.array([y2]), z0, v0)
              - gen(ctx, np.array([y1]), z0, v0))[0]
        dfn = (truncated.generator(ctx, np.array([y2]), z0, v0)
               - truncated.generator(ctx, np.array([y1]), z0, v0))[0]
        assert df == dfn


def test_truncate_inactive_when_bounded():
    marks = jb.make_mark_space([[1.0]], [1.0])
    prob = _basic_problem(marks=marks)
    truncated = jb.truncate_problem(prob, 100.0)
    ctx = prob.context(1.0, np.random.default_rng(0).normal(size=(50, 1)),
                       np.zeros((50, 1)))
    assert np.array_equal(truncated.terminal(ctx), prob.terminal(ctx))
    y = np.linspace(-5, 5, 50)
    assert np.array_equal(
        truncated.generator(ctx, y, np.zeros((50, 1)), np.zeros((50, 1))),
        prob.generator(ctx, y, np.zeros((50, 1)), np.zeros((50, 1))))


BUILT_IN_PARAMS = {
    "affine": lambda d, m: {"a": 0.7, "const": -0.3, "b": [0.25, -0.5][:d],
                            "c": [0.4, -0.2][:m]},
    "lipschitz-smooth": lambda d, m: {"ay": 0.5, "bz": [0.25, -0.75][:d],
                                      "cv": 0.3},
    "zv-coupled": lambda d, m: {"cy": -0.6, "cz": 0.3, "cv": 0.2},
}


def _formula(form, prm, ctx, y, z, v):
    """Each built-in form written out left to right, as documented; the
    products z.b and v.(c lambda) summed from 0 in index order."""
    def dot(x, w):
        out = np.zeros(x.shape[0])
        for col, wi in zip(x.T, w):
            out = out + col * wi
        return out

    if form == "affine":
        c_lam = np.array(prm["c"]) * ctx.marks.intensities
        return (prm["const"] + prm["a"] * y + dot(z, prm["b"])
                + dot(v, c_lam))
    if form == "lipschitz-smooth":
        return (prm["ay"] * np.sin(y) + dot(z, prm["bz"])
                + prm["cv"] * ctx.section_norm(v))
    return (prm["cy"] * y + prm["cz"] * np.sqrt(np.einsum("nd,nd->n", z, z))
            + prm["cv"] * ctx.section_norm(v))


def _bind_case(form, d, m, n, seed):
    marks = jb.make_mark_space([[1.0], [2.0]][:m], [1.0, 3.0][:m])
    spec = jb.make_generator(form, BUILT_IN_PARAMS[form](d, m), marks=marks,
                             d=d)
    draws = np.random.default_rng(seed).normal(size=(n, 2 + d + 2 * m))
    scale = 10.0 ** np.floor(4 * draws[:, :1])     # magnitudes 1e-8 .. 1e8
    ctx = jb.StateContext(0.5, draws[:, 1:1 + d], np.abs(draws[:, -m:]),
                          marks, 2.0)
    y = draws[:, 0] * scale[:, 0]
    z = draws[:, 1:1 + d] * scale
    v = draws[:, 1 + d:1 + d + m] * scale
    return spec, ctx, y, z, v


def _same_bits(a, b):
    return a.shape == b.shape and np.array_equal(a.view(np.int64),
                                                 b.view(np.int64))


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(sorted(BUILT_IN_PARAMS)), st.sampled_from([1, 2]),
       st.sampled_from([1, 2]), st.integers(1, 200),
       st.integers(0, 2 ** 32 - 1), st.data())
def test_bound_form_matches_full_call_bit_for_bit(form, d, m, n, seed, data):
    spec, ctx, y, z, v = _bind_case(form, d, m, n, seed)
    bound = spec.bind(ctx, z, v)
    assert bound.row_wise
    full = spec(ctx, y, z, v)
    assert _same_bits(full, _formula(form, spec.params, ctx, y, z, v))
    assert _same_bits(np.asarray(bound(y), dtype=float), full)
    rows = np.flatnonzero(data.draw(st.lists(st.booleans(), min_size=n,
                                             max_size=n)))
    assert _same_bits(bound(y[rows], rows), full[rows])


def _layouts(x):
    """``x`` (n, w) C-contiguous, as a strided column block of a wider
    row-major table, and column-major."""
    table = np.zeros((x.shape[0], x.shape[1] + 3))
    table[:, 1:1 + x.shape[1]] = x
    return [x, table[:, 1:1 + x.shape[1]], np.asfortranarray(x)]


@pytest.mark.parametrize("n", [2, 17, 300])
@pytest.mark.parametrize("form", sorted(BUILT_IN_PARAMS))
def test_bound_form_bits_do_not_depend_on_the_zv_layout(form, n):
    # the (z, v) terms are einsum sums from 0 in index order, not BLAS
    # products whose rounding follows the memory layout: contiguous,
    # strided and broadcast (Z, V) give the same bits (d = m = 2)
    for seed in range(10):
        spec, ctx, y, z, v = _bind_case(form, 2, 2, n, seed)
        # unit magnitudes, where a reassociated sum shows in the last bit
        rng = np.random.default_rng(seed)
        z, v = rng.normal(size=z.shape), rng.normal(size=v.shape)
        want = spec.bind(ctx, z, v)(y)
        for z_l, v_l in zip(_layouts(z), _layouts(v)):
            assert _same_bits(spec.bind(ctx, z_l, v_l)(y), want)
        # one (Z, V) row that every state shares, broadcast with stride 0
        rows = [np.broadcast_to(a[0], a.shape) for a in (z, v)]
        want = spec.bind(ctx, *map(np.ascontiguousarray, rows))(y)
        assert _same_bits(spec.bind(ctx, *rows)(y), want)


@pytest.mark.parametrize("form", sorted(BUILT_IN_PARAMS))
def test_truncated_and_custom_drivers_bind_generically(form):
    # a custom driver binds generically (every row, every time); a truncated
    # driver is bound as its base is: row-wise over a built-in form, on every
    # row over a custom one, with the bits of (f - f(0)) + q_n(f(0))
    level = 0.125
    for d in (1, 2):
        for m in (1, 2):
            spec, ctx, y, z, v = _bind_case(form, d, m, 100, seed=3 + d + m)
            custom = GeneratorSpec(
                f=lambda c, yy, zz, vv: spec.f(c, yy, zz, vv),
                lipschitz_kappa=spec.lipschitz_kappa)
            bound = custom.bind(ctx, z, v)
            assert not getattr(bound, "row_wise", False)
            assert _same_bits(bound(y), custom(ctx, y, z, v))

            # unit magnitudes, where the association of the clamp shows in
            # the last bit; a custom base whose zero section varies over
            # the states
            rng = np.random.default_rng(d + 2 * m)
            y, z, v = (rng.normal(size=a.shape) for a in (y, z, v))
            shifted = GeneratorSpec(
                f=lambda c, yy, zz, vv: spec.f(c, yy + 3.0 * c.brownian[:, 0],
                                               zz, vv),
                lipschitz_kappa=spec.lipschitz_kappa)
            rows = np.flatnonzero(rng.random(y.size) < 0.4)
            term = jb.make_terminal("constant", {}, ctx.marks, d=d)
            for base, row_wise in ((spec, True), (shifted, False)):
                problem = jb.make_problem(1.0, 4, d, ctx.marks, base, term)
                truncated = jb.truncate_problem(problem, level).generator
                zero = np.asarray(base.f(ctx, np.zeros(y.size),
                                         np.zeros_like(z), np.zeros_like(v)),
                                  dtype=float)
                expected = (np.asarray(base.f(ctx, y, z, v)) - zero
                            + q_n(zero, level))
                if form == "affine" or not row_wise:    # the clamp bites
                    assert np.any(expected != base(ctx, y, z, v))
                bound = truncated.bind(ctx, z, v)
                assert getattr(bound, "row_wise", False) is row_wise
                assert _same_bits(bound(y), expected)
                assert _same_bits(truncated(ctx, y, z, v), expected)
                if row_wise:
                    assert _same_bits(bound(y[rows], rows), expected[rows])


def test_tail_mean_decreasing_in_level():
    # ladder-Cauchy input: E[|xi| 1{|xi|>n}] non-increasing, to 0
    rng = np.random.default_rng(5)
    xi = np.exp(rng.normal(size=100_000))
    tails = [np.mean(np.abs(xi) * (np.abs(xi) > n)) for n in (1, 2, 4, 8, 16, 1e6)]
    assert all(b <= a for a, b in zip(tails, tails[1:]))
    assert tails[-1] == 0.0


# ---------------------------------------------------------------------------
# empirical checks
# ---------------------------------------------------------------------------

def test_check_lipschitz_linear_pass_and_fail():
    marks = jb.make_mark_space([[1.0]], [1.0])
    prob = _basic_problem(marks=marks)
    f2 = GeneratorSpec(f=lambda ctx, y, z, v: 2.0 * y, lipschitz_kappa=2.0)
    rep = jb.check_lipschitz(f2, prob, n_pairs=128, seed=0)
    assert rep["passed"] and np.isclose(rep["kappa_hat"], 2.0)
    assert type(rep["kappa_hat"]) is float
    f_bad = GeneratorSpec(f=lambda ctx, y, z, v: 2.0 * y, lipschitz_kappa=1.0)
    rep2 = jb.check_lipschitz(f_bad, prob, n_pairs=128, seed=0)
    assert not rep2["passed"]
    assert rep2["worst_pair"] is not None


def test_check_lipschitz_smooth_form():
    # f = sin(y) + 0.5 z1 + 0.3 ||v||, kappa = 1: dense-grid difference
    # quotient stays below 1 (oracle), and the sampled check agrees
    marks = jb.make_mark_space([[1.0]], [1.0])
    prob = _basic_problem(marks=marks)
    spec = jb.make_generator("lipschitz-smooth",
                             {"ay": 1.0, "bz": [0.5], "cv": 0.3},
                             marks=marks, d=1, kappa=1.0)
    ys = np.linspace(-6, 6, 41)
    zs = np.linspace(-6, 6, 13)
    # every (y, z) grid point in one evaluation, every pair by broadcasting
    yg, zg = (a.ravel() for a in np.meshgrid(ys, zs, indexing="ij"))
    ctx = prob.context(0.0, np.zeros((1, 1)), np.zeros((1, 1)))
    fg = spec(ctx, yg, zg[:, None], np.zeros((yg.size, 1)))
    dist = np.abs(yg[:, None] - yg) + np.abs(zg[:, None] - zg)
    moved = dist > 0
    worst = float(np.max(np.abs(fg[:, None] - fg)[moved] / dist[moved]))
    assert worst <= 1.0 + 1e-12
    rep = jb.check_lipschitz(spec, prob, n_pairs=256, seed=1)
    assert rep["passed"]


def test_check_growth_zv_independent_passes():
    marks = jb.make_mark_space([[1.0]], [1.0])
    prob = _basic_problem(marks=marks)
    spec = GeneratorSpec(f=lambda ctx, y, z, v: np.sin(y), lipschitz_kappa=1.0,
                         growth_alpha=0.5, growth_gamma=1.0, g=0.0)
    rep = jb.check_growth(spec, prob, n_points=128, seed=0)
    assert rep["passed"] and rep["max_ratio"] == 0.0


def test_check_growth_sublinear_passes():
    # f = y + sqrt(1 + |z|) - 1, gamma = 1, alpha = 0.5, g = 1:
    # scalar inequality sqrt(1+u) - 1 <= (1 + u)^(1/2) checked on a grid first
    u = np.linspace(0, 1e6, 100_001)
    assert np.all(np.sqrt(1 + u) - 1 <= (1 + u) ** 0.5)
    marks = jb.make_mark_space([[1.0]], [1.0])
    prob = _basic_problem(marks=marks)

    def f(ctx, y, z, v):
        return y + np.sqrt(1 + np.sqrt(np.einsum("...d,...d->...", z, z))) - 1

    spec = GeneratorSpec(f=f, lipschitz_kappa=1.0, growth_alpha=0.5,
                         growth_gamma=1.0, g=1.0)
    rep = jb.check_growth(spec, prob, n_points=256, seed=0)
    assert rep["passed"]


def test_check_growth_quadratic_fails():
    marks = jb.make_mark_space([[1.0]], [1.0])
    prob = _basic_problem(marks=marks)

    def f(ctx, y, z, v):
        return y + np.einsum("...d,...d->...", z, z)

    spec = GeneratorSpec(f=f, lipschitz_kappa=1.0, growth_alpha=0.9,
                         growth_gamma=5.0, g=1.0)
    rep = jb.check_growth(spec, prob, n_points=256, seed=0)
    assert not rep["passed"] and type(rep["max_ratio"]) is float


def test_checks_measure_an_overflowing_driver_as_infinite():
    # at p = 1e6 ||v||^p overflows beyond |v| = 1, so f = 0.5 ||v|| is inf
    # at some sampled points, and at both points of some pairs (an inf - inf
    # NaN): each check measures inf and fails, with no numpy warning (the
    # suite makes one an error), where a NaN ratio used to be skipped
    marks = jb.make_mark_space([[1.0]], [1.0])
    spec = jb.make_generator("zv-coupled", {"cv": 0.5}, marks=marks, d=1,
                             p=1e6, alpha=0.5, gamma=10.0)
    prob = _basic_problem(marks=marks, gen=spec, term=jb.make_terminal(
        "constant", {"value": 1.0}, marks=marks, d=1, p=1e6))
    rep = jb.check_lipschitz(spec, prob, n_pairs=64, seed=0)
    assert rep["kappa_hat"] == math.inf and not rep["passed"]
    rep = jb.check_growth(spec, prob, n_points=64, seed=0)
    assert rep["max_ratio"] == math.inf and not rep["passed"]


@pytest.mark.parametrize("d, m", [(1, 1), (2, 3)])
def test_sample_cloud_covers_its_ranges(d, m):
    # uniform draws mapped affinely: t in [0, T), Brownian states in
    # [-3, 3], every jump count 0..5, and y, z, v reaching out to +-c in
    # each magnitude class c = 0.3, 3, 30, 300 (one class per row in turn)
    from jumpbsde.generators import _sample_cloud
    marks = jb.make_mark_space([[1.0]] * m, [1.0] * m)
    prob = jb.make_problem(2.5, 4, d, marks, jb.make_generator(
        "affine", {}, marks=marks, d=d), jb.make_terminal(
        "constant", {}, marks, d=d))
    t, bw, counts, y, z, v = _sample_cloud(prob, 400, seed=0)
    assert (t.shape, bw.shape, counts.shape) == ((400,), (400, d), (400, m))
    assert (y.shape, z.shape, v.shape) == ((400,), (400, d), (400, m))
    assert 0 <= t.min() and t.max() < 2.5 and np.ptp(t) > 2.4
    assert -3 <= bw.min() < -2.9 and 2.9 < bw.max() <= 3
    assert set(np.unique(counts)) == set(range(6))
    for cls, c in enumerate((0.3, 3.0, 30.0, 300.0)):
        signed = np.column_stack((y, z, v))[cls::4]
        assert -c <= signed.min() < -0.9 * c and 0.9 * c < signed.max() <= c
    # a seed draws its own cloud, the same every time
    again = _sample_cloud(prob, 400, seed=0)
    other = _sample_cloud(prob, 400, seed=1)
    assert all(np.array_equal(a, b) for a, b in zip(again, (t, bw, counts,
                                                            y, z, v)))
    assert not np.array_equal(other[3], y)


def test_check_growth_without_constants_is_na():
    marks = jb.make_mark_space([[1.0]], [1.0])
    prob = _basic_problem(marks=marks)
    rep = jb.check_growth(prob.generator, prob)
    assert rep["passed"] is None


def _time_read(ctx, y, z, v):
    # reads the time and both states, so a context that does not hold the
    # sampled state's own (t, state) on every row shows
    return (np.cos(ctx.t) * y + 0.3 * np.tanh(z).sum(axis=-1)
            + 0.1 * ctx.brownian[:, 0]
            + 0.2 * ctx.section_norm(v) * (1.0 + ctx.jump_counts[:, 0]) / 6.0)


_CHECKED_FORMS = {
    "affine": lambda d, m: {"a": 0.5, "const": 1.0, "b": [0.3] * d,
                            "c": [0.4] * m},
    "lipschitz-smooth": lambda d, m: {"ay": 0.8, "bz": [0.5] * d,
                                      "cv": 0.3},
    "zv-coupled": lambda d, m: {"cy": 0.2, "cz": 0.7, "cv": 0.4},
    "custom": None,
}


def _checked_problem(form, d, m, p):
    # growth constants that some samples meet and others do not
    marks = jb.make_mark_space([[1.0 + i] for i in range(m)],
                               [0.7 + 0.6 * i for i in range(m)])
    if form == "custom":
        gen = GeneratorSpec(f=_time_read, lipschitz_kappa=1.2, p=p,
                            growth_alpha=0.5, growth_gamma=2.0, g=1.0)
    else:
        gen = jb.make_generator(form, _CHECKED_FORMS[form](d, m), marks=marks,
                                d=d, p=p, alpha=0.5, gamma=2.0, g=1.0)
    return jb.make_problem(1.0, 4, d, marks, gen, jb.make_terminal(
        "constant", {}, marks, d=d, p=p))


@pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
@pytest.mark.parametrize("d, m", [(1, 1), (1, 2), (2, 1), (2, 2)])
@pytest.mark.parametrize("form", list(_CHECKED_FORMS))
def test_checks_match_the_per_point_loops(form, d, m, p):
    # one driver call per sampled state gives the per-point loops' verdict
    # and worst argument; the measured ratio has their bits at d = 1, and
    # at d = 2 it may differ in the last bits, from the order in which the
    # Euclidean norm of z sums
    problem = _checked_problem(form, d, m, p)
    gen = problem.generator
    checks = ((jb.check_lipschitz, reference.check_lipschitz, "kappa_hat",
               "worst_pair"),
              (jb.check_growth, reference.check_growth, "max_ratio",
               "worst_point"))
    for seed in range(5):
        for check, loop, ratio, worst in checks:
            got, want = check(gen, problem, 64, seed), loop(gen, problem,
                                                            64, seed)
            assert got["passed"] == want["passed"]
            if d == 1:
                assert got == want
            else:
                np.testing.assert_array_max_ulp(got[ratio], want[ratio], 4)
                assert (got[worst] is None) == (want[worst] is None)
                for key in want[worst] or {}:
                    np.testing.assert_array_max_ulp(
                        np.array(got[worst][key], dtype=float),
                        np.array(want[worst][key], dtype=float), 4)
                    if key != "distance":
                        assert got[worst][key] == want[worst][key]


def test_checks_call_the_driver_once_per_sampled_state(monkeypatch):
    # the solver checks 64 states each for the Lipschitz and the growth
    # bound; each driver call sees one state: its time as a float, and
    # as many context rows as points
    calls = []
    call = GeneratorSpec.__call__

    def counted(spec, ctx, y, z, v):
        calls.append((type(ctx.t), ctx.n, y.shape[0], z.shape[0],
                      v.shape[0], np.ptp(ctx.brownian, axis=0).max(),
                      np.ptp(ctx.jump_counts, axis=0).max()))
        return call(spec, ctx, y, z, v)
    monkeypatch.setattr(GeneratorSpec, "__call__", counted)
    problem = _checked_problem("custom", 2, 2, 2.0)
    problem = replace(problem, generator=replace(problem.generator,
                                                 growth_gamma=100.0))
    for check, points in ((jb.check_lipschitz, 5), (jb.check_growth, 2)):
        calls.clear()
        check(problem.generator, problem, 64, 0)
        assert calls == [(float,) + (points,) * 4 + (0.0, 0.0)] * 64
    calls.clear()
    solver._check_assumptions(problem, 0)
    assert len(calls) == 128


# ---------------------------------------------------------------------------
# integrability estimates
# ---------------------------------------------------------------------------

def test_check_integrability_constant_exact_on_tree():
    marks = jb.make_mark_space([[1.0]], [1.0])
    gen = jb.make_generator("affine", {}, marks=marks, d=1)
    term = jb.make_terminal("constant", {"value": 3.0}, marks=marks, d=1)
    prob = jb.make_problem(1.0, 4, 1, marks, gen, term)
    rep = jb.check_integrability(prob, method="tree")
    # exact up to product rounding: no sampling error, zero reported SE
    assert abs(rep["xi_abs_mean"] - 3.0) <= 8 * np.finfo(float).eps * 3.0
    assert rep["f0_integral_mean"] == 0.0
    assert rep["xi_abs_se"] == 0.0


def test_check_integrability_squared_brownian():
    # xi = B_1^2 (E=1), f(.,0) = 1 (integral 1): both within 3 SE
    marks = jb.make_mark_space([[1.0]], [1.0])
    gen = jb.make_generator("affine", {"const": 1.0}, marks=marks, d=1)
    term = jb.make_terminal("brownian-functional", {"kind": "square"},
                            marks=marks, d=1)
    prob = jb.make_problem(1.0, 10, 1, marks, gen, term)
    rep = jb.check_integrability(prob, n_paths=50_000, seed=3)
    assert abs(rep["xi_abs_mean"] - 1.0) <= 3 * rep["xi_abs_se"]
    assert abs(rep["f0_integral_mean"] - 1.0) <= max(3 * rep["f0_integral_se"],
                                                     1e-12)


def test_check_integrability_lognormal():
    marks = jb.make_mark_space([[1.0]], [1.0])
    gen = jb.make_generator("affine", {}, marks=marks, d=1)
    term = jb.make_terminal("brownian-functional", {"kind": "exp"},
                            marks=marks, d=1)
    prob = jb.make_problem(1.0, 10, 1, marks, gen, term)
    rep = jb.check_integrability(prob, n_paths=50_000, seed=4)
    assert abs(rep["xi_abs_mean"] - math.exp(0.5)) <= 3 * rep["xi_abs_se"]


# ---------------------------------------------------------------------------
# declarative forms
# ---------------------------------------------------------------------------

def test_unknown_forms_rejected():
    marks = jb.make_mark_space([[1.0]], [1.0])
    with pytest.raises(ValueError, match="unknown generator form"):
        jb.make_generator("mystery", {}, marks=marks, d=1)
    with pytest.raises(ValueError, match="unknown terminal form"):
        jb.make_terminal("mystery", {}, marks=marks, d=1)


def test_terminal_forms_evaluate():
    marks = jb.make_mark_space([[1.0]], [2.0])
    gen = jb.make_generator("affine", {}, marks=marks, d=1)
    prob = _basic_problem(marks=marks, gen=gen)
    ctx = prob.context(1.0, np.array([[0.3], [-0.2]]),
                       np.array([[2.0], [0.0]]))
    t_const = jb.make_terminal("constant", {"value": 5.0}, marks=marks, d=1)
    assert np.array_equal(t_const(ctx), [5.0, 5.0])
    t_lin = jb.make_terminal("brownian-functional", {"kind": "linear"},
                             marks=marks, d=1)
    assert np.allclose(t_lin(ctx), [0.3, -0.2])
    t_cnt = jb.make_terminal("jump-count", {"compensated": True},
                             marks=marks, d=1)
    assert np.allclose(t_cnt(ctx), [2.0 - 2.0, 0.0 - 2.0])
    t_mix = jb.make_terminal(
        "state-linear",
        {"brownian_weights": [1.0], "jump_weights": [0.5], "compensated": True},
        marks=marks, d=1)
    assert np.allclose(t_mix(ctx), [0.3 + 1.0 - 1.0, -0.2 + 0.0 - 1.0])


def test_problem_fingerprint_stable():
    p1 = _basic_problem()
    p2 = _basic_problem()
    assert p1.fingerprint() == p2.fingerprint()
    p3 = _basic_problem(T=2.0, N=8)
    assert p1.fingerprint() != p3.fingerprint()
