"""Problem data: terminal condition, driver, and empirical assumption checks.

A driver is evaluated vectorized: f(ctx, y, z, v) with ctx carrying the time
and the simulated state (Brownian value, per-mark jump counts), y (n,),
z (n, d), v the per-mark section (n, m). State dependence is restricted to
these state summaries so the same driver evaluates on path batches and on the
scenario-tree lattice. ||v|| anywhere in the driver or the checks is the
sectional norm (sum_i |v_i|^p lambda_i)^(1/p) with p from the problem.

The solvers' per-step fixed point holds (z, v) fixed, so they evaluate the
driver through GeneratorSpec.bind(ctx, z, v), a y-only map (``_Bound``): a
y-part g(y) plus per-state terms the bind computes once, added left to
right. A built-in form is written once, in that form, so f(ctx, y, z, v) is
its bound map on every row, bit for bit, and the bound map evaluates any
subset of rows. truncate_problem appends -f(t,.,0,0,0) and its clamp to the
base's bound map. A custom driver binds to a y-part that calls it on every
row, with no terms.

The Lipschitz/growth checks are empirical reports over sampled argument
clouds, not proofs: one driver call per sampled state, on its stacked
points and at its time. sup_{|y|<=r}|f(t,y,0,0) - f(t,0,0,0)| <= kappa r
holds for Lipschitz drivers, unchecked. The integrability check reads the
zero section and terminal on a noise representation (estimates module).
"""

import copy
import functools
import hashlib
import json
import math
from dataclasses import dataclass, replace

import numpy as np

from . import rng
from .errors import ConfigError
from .randomness import TimeGrid, MarkSpace, make_time_grid

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


def _built(state):
    return state() if callable(state) else state


class StateContext:
    """Evaluation context: time plus the simulated state at that time.

    ``brownian`` (n, d) and ``jump_counts`` (n, m) may each be given as a
    function of no arguments that builds the array: it is built on its
    first read and kept, so a driver that reads neither never builds them.
    """

    def __init__(self, t, brownian, jump_counts, marks, p):
        self.t, self.marks, self.p = t, marks, p
        self._given = brownian, jump_counts

    brownian = functools.cached_property(lambda self: _built(self._given[0]))
    jump_counts = functools.cached_property(
        lambda self: _built(self._given[1]))

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
    supplied; the solvers check both before they solve (``check_lipschitz``,
    and ``check_growth`` when alpha and gamma are given). Evaluation must be
    pure and reentrant.
    """

    f: callable
    lipschitz_kappa: float
    p: float = 2.0
    growth_alpha: float | None = None
    growth_gamma: float | None = None
    g: float = 0.0
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
        """The ``_Bound`` y -> f(ctx, y, z, v) with (ctx, z, v) held fixed.

        ``bound(y)`` evaluates every row. When ``bound.row_wise`` (a built-in
        form or its truncation), ``bound(y[rows], rows)`` evaluates those rows
        only and gives the bits of ``bound(y)[rows]``. A custom ``f`` binds
        to a y-part that calls ``__call__`` on every row, not row-wise.
        """
        if isinstance(self.f, _Form):
            return self.f.bind(ctx, z, v)
        return _Bound(lambda y: self(ctx, y, z, v), (), row_wise=False)

    def zero_section(self, ctx):
        """f(t, ., 0, 0, 0) on the context's states."""
        n = ctx.n
        return self(ctx, np.zeros(n), np.zeros((n, ctx.brownian.shape[1])),
                    np.zeros((n, ctx.marks.m)))


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
        """The context at time t; either state may be a function that builds
        its (n, .) array (``StateContext``)."""
        brownian, jump_counts = (s if callable(s) else np.atleast_2d(s)
                                 for s in (brownian, jump_counts))
        return StateContext(float(t), brownian, jump_counts, self.marks,
                            self.p)

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
    Binding it binds the base driver and appends -f(t,.,0,0,0) and its
    clamp to the base's bound map, so the zero section is evaluated once
    per (ctx, z, v) and the bound map is row-wise when the base's is.
    """
    if n <= 0:
        raise ValueError(f"truncation level must be positive, got {n}")
    base_gen = problem.generator
    base_term = problem.terminal

    def bind(ctx, z, v):
        f0 = base_gen.zero_section(ctx)
        return base_gen.bind(ctx, z, v).extend(-f0, q_n(f0, n))

    gen = replace(base_gen, f=_Form(bind),
                  name=f"truncated({base_gen.name})",
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
    """Random (ctx, y, z, v) arguments for the empirical checks: uniform
    draws mapped affinely to t in [0, T), Brownian states in [-3, 3], jump
    counts 0 to 5, and y, z, v in [-c, c] for the magnitude classes
    c = 0.1, 1, 10, 100 times ``scale``, one class per row in turn."""
    d, m = problem.d, problem.marks.m
    cols = 2 + 2 * d + 2 * m
    u = rng.uniform(seed, rng.STREAM_CLOUD,
                    np.arange(size, dtype=np.uint64)[:, None],
                    np.arange(cols, dtype=np.uint64)[None, :])
    t = u[:, 0] * problem.grid.horizon
    magnitudes = np.choose(np.arange(size) % 4,
                           [0.1 * scale, scale, 10 * scale, 100 * scale])
    bw = 6.0 * u[:, 1:1 + d] - 3.0
    counts = np.floor(6.0 * u[:, 1 + d:1 + d + m])
    signed = (2.0 * u[:, 1 + d + m:] - 1.0) * magnitudes[:, None]
    return t, bw, counts, signed[:, 0], signed[:, 1:1 + d], signed[:, 1 + d:]


def _per_state(spec, problem, t, bw, counts, points):
    """f (n, k) at each sampled state's k ``points`` (y, z, v), one driver
    call per state, at its time and state; and y, z, v stacked (n, k, ...)."""
    y, z, v = (np.stack(x, axis=1) for x in zip(*points))
    k = len(points)
    return np.array([
        spec(problem.context(t[i], bw[[i] * k], counts[[i] * k]),
             y[i], z[i], v[i]) for i in range(len(t))]), y, z, v


def _worst(ratio):
    """The largest ratio as a float, a NaN read as inf, and its index, the
    first in row-major order; (0.0, None) when no ratio is positive."""
    ratio[np.isnan(ratio)] = np.inf
    at = np.unravel_index(np.argmax(ratio), ratio.shape)
    return (float(ratio[at]), at) if ratio[at] > 0 else (0.0, None)


@np.errstate(all="ignore")
def check_lipschitz(spec, problem, n_pairs=256, seed=0):
    """Measured Lipschitz modulus over sampled argument pairs.

    kappa_hat = max |df| / (|dy| + |dz| + ||dv||) with both points sharing
    (t, state); passes iff kappa_hat <= declared kappa (1 + 1e-9). A driver
    that is not finite at a pair measures kappa_hat = inf, with no numpy
    warning.
    """
    if n_pairs < 2:
        raise ValueError("need at least 2 sampled pairs")
    t, bw, counts, y1, z1, v1 = _sample_cloud(problem, n_pairs, seed)
    _, _, _, y2, z2, v2 = _sample_cloud(problem, n_pairs, seed + 1)
    # the first point against itself (no pair), the second jointly and along
    # each axis: a max over the sum metric is attained on one-axis variations
    f, y, z, v = _per_state(spec, problem, t, bw, counts, [
        (y1, z1, v1), (y2, z2, v2), (y2, z1, v1), (y1, z2, v1), (y1, z1, v2)])
    dist = (np.abs(y[:, :1] - y) + np.linalg.norm(z[:, :1] - z, axis=-1)
            + problem.marks.section_norm(v[:, :1] - v, spec.p))
    df = f[:, :1] - f
    kappa_hat, at = _worst(np.where(dist == 0.0, 0.0, np.abs(df) / dist))
    worst = None if at is None else {
        "t": float(t[at[0]]), **{name: (x[at[0], 0].tolist(), x[at].tolist())
                                 for name, x in zip("yzv", (y, z, v))},
        "df": float(df[at]), "distance": float(dist[at])}
    return {"kappa_hat": kappa_hat, "declared": spec.lipschitz_kappa,
            "passed": kappa_hat <= spec.lipschitz_kappa * (1 + 1e-9),
            "worst_pair": worst}


@np.errstate(all="ignore")
def check_growth(spec, problem, n_points=256, seed=0):
    """Check |f(t,y,z,v) - f(t,y,0,0)| <= gamma (g + |y| + |z| + ||v||)^alpha.

    Reports the maximal ratio against the bound; drivers independent of (z, v)
    pass with ratio 0 by construction. A driver that is not finite at a
    point measures an infinite ratio, with no numpy warning.
    """
    if n_points < 1:
        raise ValueError("need at least 1 sampled point")
    if spec.growth_gamma is None or spec.growth_alpha is None:
        return {"max_ratio": None, "passed": None,
                "note": "no growth constants declared"}
    t, bw, counts, y, z, v = _sample_cloud(problem, n_points, seed)
    full, frozen = _per_state(spec, problem, t, bw, counts, [
        (y, z, v), (y, np.zeros_like(z), np.zeros_like(v))])[0].T
    load = (float(spec.g) + np.abs(y) + np.linalg.norm(z, axis=-1)
            + problem.marks.section_norm(v, spec.p))
    bound = spec.growth_gamma * load ** spec.growth_alpha
    max_ratio, at = _worst(np.where(bound > 0, np.abs(full - frozen) / bound,
                                    np.where(full == frozen, 0.0, np.inf)))
    worst = None if at is None else {"t": float(t[at]), "y": float(y[at]),
                                     "z": z[at].tolist(), "v": v[at].tolist()}
    return {"max_ratio": max_ratio, "passed": max_ratio <= 1 + 1e-9,
            "worst_point": worst}


# ---------------------------------------------------------------------------
# declarative built-in forms (config schema v1)
# ---------------------------------------------------------------------------

class _Bound:
    """A bound driver y -> f(ctx, y, z, v): the y-part ``g`` plus the
    per-state arrays ``terms``, added left to right.

    ``bound(y, rows)`` reads ``y`` as the rows ``rows`` (all rows when None)
    and takes those rows of every term. ``row_wise`` is False when ``g``
    itself needs every row (a custom driver).
    """

    def __init__(self, g, terms, row_wise=True):
        self.g, self.terms, self.row_wise = g, terms, row_wise

    def __call__(self, y, rows=None):
        out = self.g(y)
        for term in self.terms:
            out = out + (term if rows is None else term[rows])
        return out

    def extend(self, *terms):
        return _Bound(self.g, self.terms + terms, self.row_wise)


class _Form:
    """A driver written in its bound form: ``bind(ctx, z, v)`` gives its
    ``_Bound``, and calling the form as f(ctx, y, z, v) binds and evaluates
    every row, so both routes share one formula and one association.
    """

    def __init__(self, bind):
        self.bind = bind

    def __call__(self, ctx, y, z, v):
        return self.bind(ctx, z, v)(y)


def _is_real(x):
    # a finite JSON number: Infinity and NaN parse, but are no data
    return (isinstance(x, (int, float)) and not isinstance(x, bool)
            and math.isfinite(x))


def _is_real_list(x, ok=lambda v: True, size=None):
    """A non-empty list of finite reals v with ok(v), of ``size`` entries
    when given."""
    return (isinstance(x, (list, tuple)) and len(x) >= 1
            and (size is None or len(x) == size)
            and all(_is_real(v) and ok(v) for v in x))


# A schema (the run config's and each form's params) maps each key to a
# nested schema or to a leaf (kind, default). A kind is (check, domain):
# check(value) tells whether the value lies in the domain, which a rejection
# names as "must be <domain>, got <value>". DIM_D and DIM_M stand for a list
# of d (or m) finite reals, whose default fills every entry.
REAL = (_is_real, "a finite real")
DIM_D, DIM_M = "d", "m"


def _one_of(values, domain=None):
    """The kind of a value equal to one of ``values``, and of its type."""
    values = list(values)
    return (lambda x: any(type(x) is type(c) and x == c for c in values),
            domain or f"one of {values}")


def _read_schema(schema, given, path, dims=None):
    """``given`` read against ``schema``: defaults filled in, every leaf
    checked, unknown keys rejected. A bad entry raises ConfigError at its
    dotted path under ``path``. Values are kept as given, since report
    bodies embed the config as given; ``dims`` maps DIM_D and DIM_M to d
    and m."""
    if not isinstance(given, dict):
        raise ConfigError(path or "<root>", f"must be an object, got {given!r}")
    out = {}
    for key, entry in schema.items():
        sub = f"{path}.{key}" if path else key
        if isinstance(entry, dict):
            out[key] = _read_schema(entry, given.get(key, {}), sub, dims)
            continue
        kind, default = entry
        if kind in (DIM_D, DIM_M):
            size = dims[kind]
            kind = (lambda x, n=size: _is_real_list(x, size=n),
                    f"a list of {size} finite reals, one per "
                    + ("Brownian dimension" if kind == DIM_D else "mark"))
            default = [default] * size
        check, domain = kind
        value = given[key] if key in given else copy.deepcopy(default)
        if not check(value):
            raise ConfigError(sub, f"must be {domain}, got {value!r}")
        out[key] = value
    unknown = sorted(set(given) - set(schema))
    if unknown:
        raise ConfigError(f"{path}.{unknown[0]}" if path else unknown[0],
                          f"unknown key rejected; known: {sorted(schema)}")
    return out


def _read_params(schema, params, d, m):
    """Each entry of a form's ``params`` read against its schema, with the
    defaults filled in; reals become floats and lists float arrays."""
    if isinstance(params, dict):
        params = {key: value.tolist()
                  if isinstance(value, np.ndarray) and value.ndim == 1
                  else value for key, value in params.items()}
    read = _read_schema(schema, params, "params", {DIM_D: d, DIM_M: m})
    for key, (kind, _) in schema.items():
        if kind is REAL:
            read[key] = float(read[key])
        elif kind in (DIM_D, DIM_M):
            read[key] = np.array(read[key], dtype=float)
    return read


def _affine(params, marks, p, d):
    a, const, b, c = (params[k] for k in ("a", "const", "b", "c"))
    c_lam = c * marks.intensities
    form = _Form(lambda ctx, z, v: _Bound(lambda y: const + a * y, (
        np.einsum("nd,d->n", z, b, optimize=False),
        np.einsum("nm,m->n", v, c_lam, optimize=False))))

    if p > 1:
        q = p / (p - 1)
        kappa_v = float(np.sum(np.abs(c) ** q * marks.intensities) ** (1 / q))
    else:
        kappa_v = float(np.max(np.abs(c))) if marks.m else 0.0
    kappa = abs(a) + float(np.linalg.norm(b)) + kappa_v
    return form, kappa


def _lipschitz_smooth(params, marks, p, d):
    ay, bz, cv = (params[k] for k in ("ay", "bz", "cv"))
    form = _Form(lambda ctx, z, v: _Bound(lambda y: ay * np.sin(y), (
        np.einsum("nd,d->n", z, bz, optimize=False),
        cv * ctx.section_norm(v))))
    return form, max(abs(ay), float(np.linalg.norm(bz)), abs(cv))


def _zv_coupled(params, marks, p, d):
    cy, cz, cv = (params[k] for k in ("cy", "cz", "cv"))
    form = _Form(lambda ctx, z, v: _Bound(lambda y: cy * y, (
        cz * np.sqrt(np.einsum("...d,...d->...", z, z)),
        cv * ctx.section_norm(v))))
    return form, max(abs(cy), abs(cz), abs(cv))


# name -> (build function, params schema)
GENERATOR_FORMS = {
    "affine": (_affine, {"a": (REAL, 0.0), "const": (REAL, 0.0),
                         "b": (DIM_D, 0.0), "c": (DIM_M, 0.0)}),
    "lipschitz-smooth": (_lipschitz_smooth, {
        "ay": (REAL, 1.0), "bz": (DIM_D, 0.0), "cv": (REAL, 0.0)}),
    "zv-coupled": (_zv_coupled, {"cy": (REAL, 0.0), "cz": (REAL, 0.0),
                                 "cv": (REAL, 0.0)}),
}


def make_generator(form, params, marks, d, p=2.0, kappa=None,
                   alpha=None, gamma=None, g=0.0):
    """Build a named driver form; kappa defaults to the form's own bound."""
    if form not in GENERATOR_FORMS:
        raise ValueError(
            f"unknown generator form {form!r}; known: {sorted(GENERATOR_FORMS)}")
    build, schema = GENERATOR_FORMS[form]
    f, kappa_form = build(_read_params(schema, params or {}, d, marks.m),
                          marks, p, d)
    return GeneratorSpec(f=f, lipschitz_kappa=float(kappa if kappa is not None
                                                    else kappa_form),
                         p=float(p), growth_alpha=alpha, growth_gamma=gamma,
                         g=g, name=form, params=dict(params or {}))


def _terminal_constant(params, marks, d):
    value = params["value"]
    return lambda ctx: np.full(ctx.n, value)


_REDUCERS = {
    "linear": lambda u: u,
    "square": lambda u: u * u,
    "abs": np.abs,
    "exp": np.exp,
}


def _terminal_brownian(params, marks, d):
    red = _REDUCERS[params["kind"]]
    w, scale, shift = (params[k] for k in ("weights", "scale", "shift"))
    return lambda ctx: scale * red(ctx.brownian @ w) + shift


def _terminal_jump_count(params, marks, d):
    u, scale, shift, compensated = (
        params[k] for k in ("weights", "scale", "shift", "compensated"))

    def fn(ctx):
        comp = float(u @ marks.intensities) * ctx.t if compensated else 0.0
        return scale * (ctx.jump_counts @ u - comp) + shift

    return fn


def _terminal_state_linear(params, marks, d):
    bw, bj, shift, compensated = (params[k] for k in (
        "brownian_weights", "jump_weights", "shift", "compensated"))

    def fn(ctx):
        comp = float(bj @ marks.intensities) * ctx.t if compensated else 0.0
        return ctx.brownian @ bw + ctx.jump_counts @ bj - comp + shift

    return fn


_FLAG = _one_of((False, True))
TERMINAL_FORMS = {
    "constant": (_terminal_constant, {"value": (REAL, 0.0)}),
    "brownian-functional": (_terminal_brownian, {
        "kind": (_one_of(_REDUCERS), "linear"), "weights": (DIM_D, 1.0),
        "scale": (REAL, 1.0), "shift": (REAL, 0.0)}),
    "jump-count": (_terminal_jump_count, {
        "weights": (DIM_M, 1.0), "scale": (REAL, 1.0), "shift": (REAL, 0.0),
        "compensated": (_FLAG, False)}),
    "state-linear": (_terminal_state_linear, {
        "brownian_weights": (DIM_D, 1.0), "jump_weights": (DIM_M, 0.0),
        "shift": (REAL, 0.0), "compensated": (_FLAG, True)}),
}


def make_terminal(form, params, marks, d, p=2.0):
    if form not in TERMINAL_FORMS:
        raise ValueError(
            f"unknown terminal form {form!r}; known: {sorted(TERMINAL_FORMS)}")
    build, schema = TERMINAL_FORMS[form]
    fn = build(_read_params(schema, params or {}, d, marks.m), marks, d)
    return TerminalSpec(fn=fn, p=float(p), name=form, params=dict(params or {}))


def make_problem(horizon, steps, d, marks, generator, terminal):
    return BSDEProblem(grid=make_time_grid(horizon, steps), marks=marks,
                       d=int(d), generator=generator, terminal=terminal)
