"""Problem data: terminal condition, driver, and empirical assumption checks.

A driver is evaluated vectorized: f(ctx, y, z, v) with ctx carrying the time
and the simulated state (Brownian value, per-mark jump counts), y (n,),
z (n, d), v the per-mark section (n, m). State dependence is restricted to
these state summaries so the same driver evaluates on path batches and on the
scenario-tree lattice. ||v|| anywhere in the driver or the checks is the
sectional norm (sum_i |v_i|^p lambda_i)^(1/p) with p from the problem.

The solvers' per-step fixed point holds (z, v) fixed, so they evaluate the
driver through GeneratorSpec.bind(ctx, z, v), a y-only map. The built-in forms
are written once, in that bound form: binding computes their (z, v) term a
single time, and the bound map evaluates any subset of rows, so the fixed
point can stop evaluating the rows that have settled. f(ctx, y, z, v) of a
built-in form is its bound map on every row, bit for bit. Any other driver
(custom, or truncated by truncate_problem) is bound generically: every
evaluation goes through GeneratorSpec.__call__ on all rows.

The Lipschitz/growth checks are empirical reports over sampled argument
clouds, not proofs. The remainder bound sup_{|y|<=r}|f(t,y,0,0) -
f(t,0,0,0)| <= kappa r holds automatically for Lipschitz drivers and is not
checked separately. The integrability check reads the zero section and the
terminal on a noise representation, so it lives with the solvers' estimators
(estimates.check_integrability).
"""

import hashlib
import json
from dataclasses import dataclass, replace

import numpy as np

from . import rng
from .randomness import TimeGrid, MarkSpace

__all__ = [
    "StateContext",
    "GeneratorSpec",
    "TerminalSpec",
    "BSDEProblem",
    "q_n",
    "truncate_problem",
    "check_lipschitz",
    "check_growth",
    "make_generator",
    "make_terminal",
    "make_problem",
    "GENERATOR_FORMS",
    "TERMINAL_FORMS",
    "CONFIG_SCHEMA_ID",
]

CONFIG_SCHEMA_ID = "jumpbsde/run-config/v1"


@dataclass(frozen=True)
class StateContext:
    """Evaluation context: time plus the simulated state at that time."""

    t: float
    brownian: np.ndarray      # (n, d)
    jump_counts: np.ndarray   # (n, m)
    marks: MarkSpace
    p: float

    @property
    def n(self):
        return self.brownian.shape[0]

    def section_norm(self, v):
        return self.marks.section_norm(v, self.p)


@dataclass(frozen=True)
class GeneratorSpec:
    """Driver f with its declared constants.

    lipschitz_kappa bounds |df| by kappa(|dy| + |dz| + ||dv||); growth_gamma /
    growth_alpha / g describe the sublinear (z, v)-increment bound when
    supplied (report-only). Evaluation must be pure and reentrant.
    """

    f: callable
    lipschitz_kappa: float
    p: float = 2.0
    growth_alpha: float | None = None
    growth_gamma: float | None = None
    g: float = 0.0
    depends_on_zv: bool = True
    name: str = "custom"
    params: dict | None = None

    def __post_init__(self):
        if self.lipschitz_kappa < 0:
            raise ValueError("kappa must be non-negative")
        if self.growth_alpha is not None and not 0 < self.growth_alpha < 1:
            raise ValueError("alpha must lie in (0,1)")
        if self.growth_gamma is not None and self.growth_gamma < 0:
            raise ValueError("gamma must be non-negative")

    def __call__(self, ctx, y, z, v):
        out = np.asarray(self.f(ctx, y, z, v), dtype=float)
        return np.broadcast_to(out, np.shape(y)).astype(float, copy=False)

    def bind(self, ctx, z, v):
        """The y-only driver y -> f(ctx, y, z, v) with (ctx, z, v) held fixed.

        ``bound(y)`` evaluates every row. A built-in form's bound map has
        ``row_wise`` set: ``bound(y[rows], rows)`` then evaluates those rows
        only and gives the bits of ``bound(y)[rows]``. The fast path lives on
        the form's ``f``, not on the spec, so replacing ``f`` (as
        truncate_problem does) falls back to the generic path.
        """
        if isinstance(self.f, _Form):
            return self.f.bind(ctx, z, v)
        return lambda y: self(ctx, y, z, v)

    def zero_section(self, ctx):
        """f(t, ., 0, 0, 0) on the context's states."""
        n = ctx.n
        return self(ctx, np.zeros(n), np.zeros((n, ctx.brownian.shape[1])),
                    np.zeros((n, ctx.marks.m)))

    def g_values(self, ctx):
        if callable(self.g):
            return np.broadcast_to(np.asarray(self.g(ctx), dtype=float), (ctx.n,))
        return np.full(ctx.n, float(self.g))


@dataclass(frozen=True)
class TerminalSpec:
    """Terminal payoff as a function of the terminal state."""

    fn: callable
    p: float = 2.0
    name: str = "custom"
    params: dict | None = None

    def __call__(self, ctx):
        out = np.asarray(self.fn(ctx), dtype=float)
        return np.broadcast_to(out, (ctx.n,)).astype(float, copy=False)


@dataclass(frozen=True)
class BSDEProblem:
    grid: TimeGrid
    marks: MarkSpace
    d: int
    generator: GeneratorSpec
    terminal: TerminalSpec

    def __post_init__(self):
        if self.d < 1:
            raise ValueError("dimension d must be >= 1")
        if self.generator.p != self.terminal.p:
            raise ValueError("generator and terminal integrability tags differ")

    @property
    def p(self):
        return self.generator.p

    def context(self, t, brownian, jump_counts):
        return StateContext(float(t), np.atleast_2d(brownian),
                            np.atleast_2d(jump_counts), self.marks, self.p)

    def config_dict(self):
        gen = self.generator
        term = self.terminal
        return {
            "horizon": self.grid.horizon,
            "steps": self.grid.steps,
            "dim": self.d,
            "marks": self.marks.to_json_dict(),
            "generator": {"form": gen.name, "params": gen.params or {},
                          "kappa": gen.lipschitz_kappa, "p": gen.p,
                          "alpha": gen.growth_alpha, "gamma": gen.growth_gamma},
            "terminal": {"form": term.name, "params": term.params or {}},
        }

    def fingerprint(self):
        blob = json.dumps(self.config_dict(), sort_keys=True, default=str)
        return hashlib.sha256(blob.encode()).hexdigest()[:16]


# ---------------------------------------------------------------------------
# truncation ladder
# ---------------------------------------------------------------------------

def q_n(x, n):
    """Symmetric clamp to [-n, n]: 1-Lipschitz, odd, idempotent, monotone in n."""
    if n <= 0:
        raise ValueError(f"truncation level must be positive, got {n}")
    return np.clip(x, -float(n), float(n))


def truncate_problem(problem, n):
    """Clamp the terminal value and the driver's zero section at level n.

    The driver becomes f(t,y,z,v) - f(t,0,0,0) + q_n(f(t,0,0,0)): increments
    in (y,z,v) are untouched, so the Lipschitz modulus carries over exactly,
    and the truncated data are bounded (square-integrable sub-problem).
    """
    if n <= 0:
        raise ValueError(f"truncation level must be positive, got {n}")
    base_gen = problem.generator
    base_term = problem.terminal

    def f_trunc(ctx, y, z, v, _f=base_gen.f):
        zero = base_gen.zero_section(ctx)
        return (np.asarray(_f(ctx, y, z, v), dtype=float)
                - zero + q_n(zero, n))

    gen = replace(base_gen, f=f_trunc, name=f"truncated({base_gen.name})",
                  params={"base": base_gen.params or {}, "n": float(n)})
    term = replace(base_term,
                   fn=lambda ctx, _t=base_term.fn: q_n(np.asarray(_t(ctx)), n),
                   name=f"truncated({base_term.name})",
                   params={"base": base_term.params or {}, "n": float(n)})
    return replace(problem, generator=gen, terminal=term)


# ---------------------------------------------------------------------------
# empirical assumption checks
# ---------------------------------------------------------------------------

def _sample_cloud(problem, size, seed, scale=3.0):
    """Random (ctx, y, z, v) arguments for the empirical checks."""
    d, m = problem.d, problem.marks.m
    span = max(1, size)
    cols = 2 + 2 * d + 2 * m
    draws = rng.normal(seed, rng.STREAM_CLOUD,
                       np.arange(span, dtype=np.uint64)[:, None],
                       np.arange(cols, dtype=np.uint64)[None, :])
    t = (np.abs(draws[:, 0]) % 1.0) * problem.grid.horizon
    magnitudes = np.choose(np.arange(span) % 4,
                           [0.1 * scale, scale, 10 * scale, 100 * scale])
    bw = draws[:, 1:1 + d]
    counts = np.floor(np.abs(draws[:, 1 + d:1 + d + m]) * 2)
    y = draws[:, 1 + d + m] * magnitudes
    z = draws[:, 2 + d + m:2 + 2 * d + m] * magnitudes[:, None]
    v = draws[:, 2 + 2 * d + m:2 + 2 * d + 2 * m] * magnitudes[:, None]
    return t, bw, counts, y, z, v


def check_lipschitz(spec, problem, n_pairs=256, seed=0):
    """Measured Lipschitz modulus over sampled argument pairs.

    kappa_hat = max |df| / (|dy| + |dz| + ||dv||) with both points sharing
    (t, state); passes iff kappa_hat <= declared kappa (1 + 1e-9).
    """
    if n_pairs < 2:
        raise ValueError("need at least 2 sampled pairs")
    t, bw, counts, y1, z1, v1 = _sample_cloud(problem, n_pairs, seed)
    _, _, _, y2, z2, v2 = _sample_cloud(problem, n_pairs, seed + 1)
    kappa_hat, worst = 0.0, None
    for i in range(n_pairs):
        ctx = problem.context(t[i], bw[i:i + 1], counts[i:i + 1])
        # joint pair plus axis-aligned pairs: a max over the sum metric is
        # attained on single-coordinate variations
        variants = [(y2[i], z2[i], v2[i]), (y2[i], z1[i], v1[i]),
                    (y1[i], z2[i], v1[i]), (y1[i], z1[i], v2[i])]
        fa = float(spec(ctx, y1[i:i + 1], z1[i:i + 1], v1[i:i + 1])[0])
        for yb, zb, vb in variants:
            fb = float(spec(ctx, np.array([yb]), zb[None, :], vb[None, :])[0])
            dist = (abs(y1[i] - yb) + float(np.linalg.norm(z1[i] - zb))
                    + float(problem.marks.section_norm(v1[i] - vb, spec.p)))
            if dist == 0.0:
                continue
            ratio = abs(fa - fb) / dist
            if ratio > kappa_hat:
                kappa_hat = ratio
                worst = {"t": float(t[i]), "y": (float(y1[i]), float(yb)),
                         "z": (z1[i].tolist(), zb.tolist()),
                         "v": (v1[i].tolist(), vb.tolist()),
                         "df": fa - fb, "distance": dist}
    return {"kappa_hat": kappa_hat, "declared": spec.lipschitz_kappa,
            "passed": kappa_hat <= spec.lipschitz_kappa * (1 + 1e-9),
            "worst_pair": worst}


def check_growth(spec, problem, n_points=256, seed=0):
    """Check |f(t,y,z,v) - f(t,y,0,0)| <= gamma (g + |y| + |z| + ||v||)^alpha.

    Reports the maximal ratio against the bound; drivers independent of (z, v)
    pass with ratio 0 by construction.
    """
    if n_points < 1:
        raise ValueError("need at least 1 sampled point")
    if spec.growth_gamma is None or spec.growth_alpha is None:
        return {"max_ratio": None, "passed": None,
                "note": "no growth constants declared"}
    t, bw, counts, y, z, v = _sample_cloud(problem, n_points, seed)
    max_ratio, worst = 0.0, None
    for i in range(n_points):
        ctx = problem.context(t[i], bw[i:i + 1], counts[i:i + 1])
        full = float(spec(ctx, y[i:i + 1], z[i:i + 1], v[i:i + 1])[0])
        frozen = float(spec(ctx, y[i:i + 1], np.zeros((1, problem.d)),
                            np.zeros((1, problem.marks.m)))[0])
        load = (spec.g_values(ctx)[0] + abs(y[i])
                + float(np.linalg.norm(z[i]))
                + float(problem.marks.section_norm(v[i], spec.p)))
        bound = spec.growth_gamma * load ** spec.growth_alpha
        ratio = abs(full - frozen) / bound if bound > 0 else (
            0.0 if full == frozen else np.inf)
        if ratio > max_ratio:
            max_ratio, worst = ratio, {"t": float(t[i]), "y": float(y[i]),
                                       "z": z[i].tolist(), "v": v[i].tolist()}
    return {"max_ratio": max_ratio, "passed": max_ratio <= 1 + 1e-9,
            "worst_point": worst}


# ---------------------------------------------------------------------------
# declarative built-in forms (config schema v1)
# ---------------------------------------------------------------------------

class _Form:
    """A built-in driver written once, in its bound form.

    ``bind_zv(ctx, z, v)`` computes the (z, v) term and returns the map
    ``f_of_y(y, rows=None)``, where ``y`` holds the rows ``rows`` (all rows
    when None). Calling the form as f(ctx, y, z, v) binds and evaluates every
    row, so both routes share one formula and one floating-point association.
    """

    def __init__(self, bind_zv):
        self._bind_zv = bind_zv

    def bind(self, ctx, z, v):
        f_of_y = self._bind_zv(ctx, z, v)
        f_of_y.row_wise = True
        return f_of_y

    def __call__(self, ctx, y, z, v):
        return self._bind_zv(ctx, z, v)(y)


def _take(values, rows):
    return values if rows is None else values[rows]


def _affine(params, marks, p, d):
    a = float(params.get("a", 0.0))
    const = float(params.get("const", 0.0))
    b = np.asarray(params.get("b", [0.0] * d), dtype=float).reshape(d)
    c = np.asarray(params.get("c", [0.0] * marks.m), dtype=float).reshape(marks.m)
    c_lam = c * marks.intensities

    def bind_zv(ctx, z, v):
        zb, vc = z @ b, v @ c_lam

        def f_of_y(y, rows=None):
            return const + a * y + _take(zb, rows) + _take(vc, rows)

        return f_of_y

    if p > 1:
        q = p / (p - 1)
        kappa_v = float(np.sum(np.abs(c) ** q * marks.intensities) ** (1 / q))
    else:
        kappa_v = float(np.max(np.abs(c))) if marks.m else 0.0
    kappa = abs(a) + float(np.linalg.norm(b)) + kappa_v
    return _Form(bind_zv), kappa, bool(np.any(b) or np.any(c))


def _lipschitz_smooth(params, marks, p, d):
    ay = float(params.get("ay", 1.0))
    bz = np.asarray(params.get("bz", [0.0] * d), dtype=float).reshape(d)
    cv = float(params.get("cv", 0.0))

    def bind_zv(ctx, z, v):
        zb, vn = z @ bz, cv * ctx.section_norm(v)

        def f_of_y(y, rows=None):
            return ay * np.sin(y) + _take(zb, rows) + _take(vn, rows)

        return f_of_y

    kappa = max(abs(ay), float(np.linalg.norm(bz)), abs(cv))
    return _Form(bind_zv), kappa, bool(np.any(bz) or cv != 0)


def _zv_coupled(params, marks, p, d):
    cy = float(params.get("cy", 0.0))
    cz = float(params.get("cz", 0.0))
    cv = float(params.get("cv", 0.0))

    def bind_zv(ctx, z, v):
        zn = cz * np.sqrt(np.einsum("...d,...d->...", z, z))
        vn = cv * ctx.section_norm(v)

        def f_of_y(y, rows=None):
            return cy * y + _take(zn, rows) + _take(vn, rows)

        return f_of_y

    kappa = max(abs(cy), abs(cz), abs(cv))
    return _Form(bind_zv), kappa, bool(cz or cv)


GENERATOR_FORMS = {
    "affine": _affine,
    "lipschitz-smooth": _lipschitz_smooth,
    "zv-coupled": _zv_coupled,
}


def make_generator(form, params, marks, d, p=2.0, kappa=None,
                   alpha=None, gamma=None, g=0.0):
    """Build a named driver form; kappa defaults to the form's own bound."""
    if form not in GENERATOR_FORMS:
        raise ValueError(
            f"unknown generator form {form!r}; known: {sorted(GENERATOR_FORMS)}")
    f, kappa_form, dep = GENERATOR_FORMS[form](dict(params or {}), marks, p, d)
    return GeneratorSpec(f=f, lipschitz_kappa=float(kappa if kappa is not None
                                                    else kappa_form),
                         p=float(p), growth_alpha=alpha, growth_gamma=gamma,
                         g=g, depends_on_zv=dep, name=form,
                         params=dict(params or {}))


def _terminal_constant(params, marks, d):
    value = float(params.get("value", 0.0))
    return lambda ctx: np.full(ctx.n, value)


def _terminal_brownian(params, marks, d):
    kind = params.get("kind", "linear")
    w = np.asarray(params.get("weights", [1.0] * d), dtype=float).reshape(d)
    scale = float(params.get("scale", 1.0))
    shift = float(params.get("shift", 0.0))
    reducers = {
        "linear": lambda u: u,
        "square": lambda u: u * u,
        "abs": np.abs,
        "exp": np.exp,
    }
    if kind not in reducers:
        raise ValueError(f"unknown brownian-functional kind {kind!r}")
    red = reducers[kind]
    return lambda ctx: scale * red(ctx.brownian @ w) + shift


def _terminal_jump_count(params, marks, d):
    u = np.asarray(params.get("weights", [1.0] * marks.m),
                   dtype=float).reshape(marks.m)
    scale = float(params.get("scale", 1.0))
    shift = float(params.get("shift", 0.0))
    compensated = bool(params.get("compensated", False))

    def fn(ctx):
        comp = float(u @ marks.intensities) * ctx.t if compensated else 0.0
        return scale * (ctx.jump_counts @ u - comp) + shift

    return fn


def _terminal_state_linear(params, marks, d):
    bw = np.asarray(params.get("brownian_weights", [1.0] * d),
                    dtype=float).reshape(d)
    bj = np.asarray(params.get("jump_weights", [0.0] * marks.m),
                    dtype=float).reshape(marks.m)
    shift = float(params.get("shift", 0.0))
    compensated = bool(params.get("compensated", True))

    def fn(ctx):
        comp = float(bj @ marks.intensities) * ctx.t if compensated else 0.0
        return ctx.brownian @ bw + ctx.jump_counts @ bj - comp + shift

    return fn


TERMINAL_FORMS = {
    "constant": _terminal_constant,
    "brownian-functional": _terminal_brownian,
    "jump-count": _terminal_jump_count,
    "state-linear": _terminal_state_linear,
}


def make_terminal(form, params, marks, d, p=2.0):
    if form not in TERMINAL_FORMS:
        raise ValueError(
            f"unknown terminal form {form!r}; known: {sorted(TERMINAL_FORMS)}")
    fn = TERMINAL_FORMS[form](dict(params or {}), marks, d)
    return TerminalSpec(fn=fn, p=float(p), name=form, params=dict(params or {}))


def make_problem(horizon, steps, d, marks, generator, terminal):
    from .randomness import make_time_grid
    return BSDEProblem(grid=make_time_grid(horizon, steps), marks=marks,
                       d=int(d), generator=generator, terminal=terminal)
