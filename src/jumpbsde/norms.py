"""Solution-space norms over sampled processes, with stopping-time families.

Samples are path-shaped arrays with optional per-path probability weights:
Monte Carlo batches use uniform weights, tree representations pass the exact
path probabilities so the oracle-side values carry no sampling error. The
class-D norm maximizes over a finite family of stopping rules and is a lower
bound for the true supremum over all stopping times; it is reported as such.

The solver builds no ``ProcessSample`` and no stopping-family object, and
takes only ``_wmean`` and ``abs_pow`` from here: its path batch and explicit
tree compute the same norms, and the class-D estimator over the rules of
``StoppingFamily.default_for``, along their walks with the walk view's
``fold`` (a first hit is the fold that keeps a path's value once it reaches
the level). ``ProcessSample`` and the functions that take one serve callers
holding path arrays: the tests' path-table references, and the benchmark's
traced mode, which hooks ``sp_norm``, ``mp_norm`` and ``class_d_norm`` by
name and reads their ``ProcessSample`` argument.
"""

from dataclasses import dataclass

import numpy as np

from .randomness import TimeGrid

__all__ = [
    "ProcessSample",
    "StoppingRule",
    "StoppingFamily",
    "sp_norm",
    "mp_norm",
    "sp_from_sup",
    "mp_from_sq",
    "class_d_norm",
    "uniform_integrability_profile",
    "norm_report",
    "abs_pow",
]


def abs_pow(x, p):
    """|x|^p, with integer p computed by exact repeated multiplication.

    Keeps power-of-two scalings bit-exact (x*x doubles exactly under 2x),
    which several oracle identities rely on.
    """
    x = np.asarray(x)
    if p == 1:
        return np.abs(x)
    if p == 2:
        return x * x
    y, e = np.abs(x), int(p) if float(p) == int(p) else float(p)
    if y.dtype.kind != "f":
        return y ** e
    y **= e      # the bits of y ** e, without a second array
    return y


@dataclass(frozen=True)
class ProcessSample:
    """Adapted process values per (path, node): (n, N+1) or (n, N+1, d).

    The value at node j is measurable w.r.t. information up to t_j. weights
    are per-path probabilities summing to 1; None means uniform.
    """

    values: np.ndarray
    grid: TimeGrid
    weights: np.ndarray | None = None

    def __post_init__(self):
        if not np.all(np.isfinite(self.values)):
            raise ValueError("process sample must be finite")
        if self.weights is not None and self.weights.shape[0] != self.values.shape[0]:
            raise ValueError("weights/path count mismatch")

    @property
    def n_paths(self):
        return self.values.shape[0]

    def path_weights(self):
        if self.weights is None:
            return np.full(self.n_paths, 1.0 / self.n_paths)
        return self.weights


def _wmean(weights, per_path):
    return float(np.einsum("n,n->", weights, per_path))


def sp_norm(sample, p):
    """(E[sup_j |Y_j|^p])^(1/p) over the sample."""
    vals = sample.values
    if vals.ndim == 3:
        vals = np.sqrt(np.einsum("njd,njd->nj", vals, vals))
    return sp_from_sup(np.max(np.abs(vals), axis=1), sample.path_weights(), p)


def sp_from_sup(sup, weights, p):
    """(E[sup^p])^(1/p) from per-path sups sup_j |Y_j| and path weights."""
    if p <= 0:
        raise ValueError(f"p must be positive, got {p}")
    return _wmean(weights, abs_pow(sup, p)) ** (1.0 / p)


def mp_norm(sample, p):
    """(E[(sum_j |Z_j|^2 dt)^(p/2)])^(1/p); Z given per step (n, N, d)."""
    vals = sample.values
    if vals.ndim == 2:
        vals = vals[:, :, None]
    sq = np.einsum("njd,njd->n", vals, vals) * sample.grid.dt
    return mp_from_sq(sq, sample.path_weights(), p)


def mp_from_sq(sq, weights, p):
    """(E[sq^(p/2)])^(1/p) from per-path sq = sum_j |Z_j|^2 dt and path
    weights."""
    if p <= 0:
        raise ValueError(f"p must be positive, got {p}")
    return _wmean(weights, sq ** (p / 2.0)) ** (1.0 / p)


# ---------------------------------------------------------------------------
# stopping rules
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class StoppingRule:
    """Deterministic node or first-hitting rule; evaluates path-by-path using
    only the running values (non-anticipative by construction)."""

    kind: str            # "time" | "hit"
    node: int = 0        # for "time"
    level: float = 0.0   # for "hit": first j with |Y_j| >= level, else N

    def evaluate(self, values):
        n, K = values.shape[0], values.shape[1]
        if self.kind == "time":
            if not 0 <= self.node < K:
                raise ValueError(f"node {self.node} outside grid")
            return np.full(n, self.node, dtype=np.int64)
        if self.kind == "hit":
            hit = np.abs(values) >= self.level
            first = np.argmax(hit, axis=1)
            first[~hit.any(axis=1)] = K - 1
            return first
        raise ValueError(f"unknown stopping rule kind {self.kind!r}")


@dataclass(frozen=True)
class StoppingFamily:
    rules: tuple

    def __post_init__(self):
        if len(self.rules) == 0:
            raise ValueError("stopping family must be non-empty")

    @classmethod
    def deterministic(cls, grid):
        return cls(tuple(StoppingRule("time", node=j)
                         for j in range(grid.steps + 1)))

    @classmethod
    def default_for(cls, sample):
        """All grid times plus hitting rules at |Y_T| quantiles (50/90/99%)."""
        terminal = np.abs(sample.values[:, -1])
        rules = list(cls.deterministic(sample.grid).rules)
        for q in (0.5, 0.9, 0.99):
            lev = float(np.quantile(terminal, q))
            if lev > 0:
                rules.append(StoppingRule("hit", level=lev))
        return cls(tuple(rules))


def class_d_norm(sample, family):
    """max over the family of E|Y_tau|: a lower bound for the class-D norm."""
    if sample.values.ndim != 2:
        raise ValueError("class-D norm applies to scalar process samples")
    w = sample.path_weights()
    rows = np.arange(sample.n_paths)
    best = 0.0
    for rule in family.rules:
        tau = rule.evaluate(sample.values)
        best = max(best, _wmean(w, np.abs(sample.values[rows, tau])))
    return best


def uniform_integrability_profile(sample, family, levels):
    """For each K: max over rules of E[|Y_tau| 1{|Y_tau| > K}]."""
    levels = list(levels)
    if any(b <= a for a, b in zip(levels, levels[1:])):
        raise ValueError("levels must be increasing")
    w = sample.path_weights()
    rows = np.arange(sample.n_paths)
    stopped = [np.abs(sample.values[rows, rule.evaluate(sample.values)])
               for rule in family.rules]
    return {float(K): max(_wmean(w, v * (v > K)) for v in stopped)
            for K in levels}


def norm_report(norm, p, value, estimator, n_paths, seed=None):
    """JSON-ready record for a single norm evaluation."""
    return {"norm": norm, "p": p, "value": value, "estimator": estimator,
            "n_paths": n_paths, "seed": seed}
