"""Backward solvers: exact tree induction, Monte Carlo regression, the Picard
iteration with contraction monitoring, horizon subdivision, and the truncation
ladder for data that are merely integrable.

Per-step scheme (both representations): implicit in y, explicit in (z, v) --
    Y_k = fixpoint of  y -> E[Y_{k+1} | info_k] + f(t_k, state, y, Z_k, V_k) dt
with Z_k the increment projection E[Y_{k+1} dB]/dt and V_k(e_i) the
jump-conditional difference E[Y_{k+1} | jump e_i] - E[Y_{k+1} | no jump].
The fixed point contracts at rate kappa*dt; its iteration (``_solve_implicit``)
is one loop for every driver, which ends once two iterates are equal or
after a count that depends only on kappa*dt, so power-of-two input scalings
reproduce bit-identical solutions on the tree.

One loop, ``_backward``, runs the scheme on a noise representation, and only
the representation's estimator of E[. | info_k] differs: ``_Lattice`` sums
over the tree's recombined states with exact branch weights (``_Tree``, an
explicit tree, adds the leaf sweep over root-to-leaf paths); ``_PathBatch``
regresses on the simulated state, which it keeps once, step-major (its
Brownian values at checkpoints, ``randomness._Checkpoints``), with one basis
per step (each feature's column, mean and std, and the Gram) kept for every
solve on the batch; each fit standardizes the step's state columns again and
refills the design into one buffer. Solutions have one layout on both:
per-depth lists of arrays over the lattice states or the paths
(``Solution``). A representation owns the estimators read from them; its
table of the problem data, |f(t_k, ., 0, 0, 0)| and |xi| on its states
(``_data_levels``), feeds the estimate functionals, the clamp-tail bound and
``estimates.check_integrability``. ``_setup`` builds the tree or the batch
and picks the representation for every entry point below.

The Picard engine re-solves with (z, v) frozen at the previous iterate --
the inner problem's driver depends on y only -- and records successive
distances in the (S^q, M^q, L^q) sample norms. On explicit trees those norms
are exact via a leaf sweep; on implicit lattices S^q is replaced by the
exact sup-of-marginals lower bound and M^q by its q=2 form (L^q is a linear
functional and stays exact). The engine keeps one iterate, Y per depth and a
(Z_k, V_k) entry per depth that the representation makes, and overwrites it
in place, one depth at a time. It owns the constant start, which the first
sweep freezes, and the write order: a sweep writes the new Y_{k+1} over its
level only after step k has projected it (``project_frozen``), handed the
old level, or None when Y_{k+1} kept its bits. On the lattice (Z_k, V_k) is
the exact projection of Y_{k+1}: the frozen fields project the old level,
and an entry holds nothing. On a path batch an entry is the Z/V columns of
the step's regression coefficients (a fitted field is the step's design
times them), or the plain mean row at k = 0: one target-major sum on the
design a fit has just filled gives the new (Z_k, V_k) and the previous
sweep's. A solution keeps Y and the entries; its Z and V compute a depth
when read (``expand``, ``_Projected``).
The representation's meter (``_Meter``) takes each depth's
differences before they are overwritten -- per-depth scalars on the lattice;
on an explicit tree and a path batch the Z and |V|^p levels, which the
representation's walk view (``sweep``: the leaf sweep's root-to-leaf paths,
or a batch's paths, each its own walk) reduces along the walks, beside the
|Y| levels on a tree and a running max of |Y| on a batch -- and the solution
norms read through the same meter. The estimate functionals and the class-D
estimator read through the walk view too: a first hit of |Y| is a ``fold``,
with no stopping-family object. A depth whose inputs repeat the previous
sweep's bit for bit (the settled tail below the terminal) is skipped. On a
tree the meter reduces each field only up to its live depth, the last one
whose difference has a nonzero entry: the skipped tail and the set terminal
meter zeros, and a max over non-negative values, or a sum with zero columns
kept in place, ends there with the same bits, so a sweep reduces the b^K
prefixes at that depth K and repeats them to the leaves only for the
weighted means. Non-contraction (three consecutive ratios >= 1 and the last
distance above the first) produces a divergence report advising horizon
subdivision.

Lattice reductions use einsum(optimize=False) rather than BLAS, so results
are bit-stable across thread counts; per-path regression assembly reduces in
a fixed order for the same reason.
"""
import collections.abc
import functools
import itertools
import math
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import (ConditioningError, ConfigError, NumericError,
                     StepSizeError)
from .generators import check_growth, check_lipschitz, truncate_problem
from .norms import _wmean, abs_pow
from .randomness import _Checkpoints, build_scenario_tree, simulate_paths

__all__ = [
    "Solution",
    "PicardTrace",
    "SubdivisionPlan",
    "LadderReport",
    "solve_tree",
    "solve_mc_regression",
    "picard_solve",
    "subdivide_horizon",
    "chained_solve",
    "truncation_ladder_solve",
    "bsde_residual_max",
    "picard_q",
    "solution_norms",
]


# the most intervals a subdivision plan may have (the order of the node cap)
MAX_INTERVALS = 10_000_000


# ---------------------------------------------------------------------------
# containers
# ---------------------------------------------------------------------------

@dataclass
class Solution:
    """Adapted triple (Y, Z, V) on a tree lattice or a path batch.

    One layout for both: ``y[j]``, ``z[j]`` and ``v[j]`` hold the fields at
    depth ``k_lo + j`` (``k_lo`` is 0 except on a chained solve's interval)
    on every lattice state, shaped (n_k,), (n_k, d), (n_k, m), or on every
    path, shaped (n,), (n, d), (n, m). Y has one more depth than Z and V.
    A solve's ``z`` and ``v`` are read-only sequences (``_Projected``) that
    compute ``z[j]`` and ``v[j]`` when read, with the bits the solve
    computed: the projection of ``y[j + 1]`` on the lattice, the expansion
    of step j's regression coefficients on a path batch, where
    ``np.stack(sol.z, axis=1)`` still gives the (n, N, d) array.
    """

    kind: str                      # "tree" | "paths"
    grid: object
    fingerprint: str
    y0: float
    tree: object = None
    batch: object = None
    y: list = None
    z: list = None
    v: list = None
    diagnostics: dict = field(default_factory=dict)


@dataclass
class PicardTrace:
    """Per-iteration distances and measured contraction ratios."""

    dy: list = field(default_factory=list)
    dz: list = field(default_factory=list)
    dv: list = field(default_factory=list)
    dist: list = field(default_factory=list)
    ratios: list = field(default_factory=list)
    q: float = 1.5
    converged: bool = False
    diverged: bool = False
    n_iter: int = 0
    message: str = ""

    def record(self, dy, dz, dv):
        self.dy.append(dy)
        self.dz.append(dz)
        self.dv.append(dv)
        self.dist.append(dy + dz + dv)
        if len(self.dist) >= 2 and self.dist[-2] > 0:
            self.ratios.append(self.dist[-1] / self.dist[-2])

    def rows(self):
        out = []
        for i in range(len(self.dist)):
            out.append({"iteration": i + 1, "dy": self.dy[i], "dz": self.dz[i],
                        "dv": self.dv[i], "dist": self.dist[i],
                        "ratio": self.ratios[i - 1] if 1 <= i <= len(self.ratios)
                        else None})
        return out

    def to_json_dict(self):
        return {"distances": self.dist, "dy": self.dy, "dz": self.dz,
                "dv": self.dv, "ratios": self.ratios, "q": self.q,
                "converged": self.converged, "diverged": self.diverged,
                "n_iter": self.n_iter, "message": self.message}


@dataclass(frozen=True)
class SubdivisionPlan:
    """Uniform horizon split with a per-interval contraction certificate."""

    breakpoints: np.ndarray
    q: float
    kappa: float
    c_emp: float
    safety: float
    interval_bound: float          # kappa * c_emp * (T/K)^(1-q/2)

    @property
    def k_intervals(self):
        return self.breakpoints.size - 1

    def to_json_dict(self):
        return {"breakpoints": self.breakpoints.tolist(), "q": self.q,
                "kappa": self.kappa, "c_emp": self.c_emp,
                "safety": self.safety, "interval_bound": self.interval_bound}


@dataclass
class LadderReport:
    """Truncation-ladder outcome: per-level solves, pairwise class-D
    distances against the clamp-tail bound, and the Cauchy declaration."""

    levels: list                   # per n: {"n", "y0", "converged"}
    pairs: list                    # per (n_lo, n_hi): measured vs bound
    cauchy: bool
    tol: float
    solutions: list = field(repr=False, default_factory=list)  # per n

    def to_json_dict(self):
        return {"levels": self.levels, "pairs": self.pairs,
                "cauchy": self.cauchy, "tol": self.tol}


def picard_q(alpha=None, eps=0.05):
    """Distance index q in (1,2); keeps alpha*q < 1 when alpha is supplied."""
    if alpha is None:
        return 1.5
    return float(np.clip((1.0 - eps) / alpha, 1.05, 1.95))


# ---------------------------------------------------------------------------
# inner fixed point (shared by both representations)
# ---------------------------------------------------------------------------

# the per-step fixed point's budget: binds only for kappa*dt within ~4e-4 of 1
_MAX_INNER = 100_000


def _fixpoint_iterations(kappa_dt):
    if kappa_dt == 0.0:
        return 1
    n = int(math.ceil(-53.0 * math.log(2.0) / math.log(kappa_dt))) + 2
    if n > _MAX_INNER:
        raise NumericError(
            f"per-step fixed point needs ~{n} iterations at kappa*dt="
            f"{kappa_dt:g}, above the budget {_MAX_INNER}")
    return n


@np.errstate(over="ignore", invalid="ignore")
def _solve_implicit(cond_mean, f_of_y, dt, kappa_dt):
    """Fixed point of y -> cond_mean + f(y) dt, vectorized over nodes: the
    iterates of the whole-array loop, which ends once two iterates are equal
    or after the count kappa*dt sets. A row-wise bound driver
    (GeneratorSpec.bind) drops the rows whose update repeated their bits
    (not merely their value: -0.0 and +0.0 differ) once they make up at
    least half of the rows evaluated: each is an exact fixed point, with a
    zero residual. So when y is finite the convergence check reads only the
    rows still evaluated, with the verdict and max residual of the check on
    every row. Overflow raises NumericError there or in the meter, with no
    numpy warning.
    """
    y, f_val = cond_mean, f_of_y(cond_mean)
    rows = slice(None)          # the rows still evaluated
    for _ in range(_fixpoint_iterations(kappa_dt)):
        y_old = y[rows]
        y_new = cond_mean[rows] + f_val[rows] * dt
        moved = y_new.view(np.int64) != y_old.view(np.int64)
        n_moved = np.count_nonzero(moved)
        if not n_moved:
            break               # y and f(y) repeat their bits
        i = moved.argmax()      # one look may rule out equal iterates
        done = y_new[i] == y_old[i] and np.array_equal(y_new, y_old)
        if f_of_y.row_wise and 2 * n_moved <= moved.size:
            keep = np.flatnonzero(moved)
            if isinstance(rows, slice):
                y, rows = y_new, keep   # y_new repeats y_old off keep
            else:
                rows = rows[keep]
            y_new = y_new[keep]
        if isinstance(rows, slice):
            y, f_val = y_new, f_of_y(y_new)
        else:
            y[rows] = y_new
            f_val[rows] = f_of_y(y_new, rows)
        if done:
            break
    if not np.all(np.isfinite(y)):
        rows = slice(None)
    y_r, mean_r, f_dt = y[rows], cond_mean[rows], f_val[rows] * dt
    resid = np.abs(y_r - (mean_r + f_dt))
    scale = np.abs(y_r) + np.abs(mean_r) + np.abs(f_dt)
    if not np.all(resid <= 512.0 * np.finfo(float).eps * scale):
        raise NumericError(
            "per-step fixed point not converged "
            f"(max residual {float(np.max(resid)):.3e})")
    return y


# ---------------------------------------------------------------------------
# regression basis (path batches)
# ---------------------------------------------------------------------------

def _monomial_exponents(n_features, degree):
    """All exponent tuples with total degree <= degree, in a fixed order."""
    return sorted((tuple(c.count(i) for i in range(n_features))
                   for t in range(degree + 1)
                   for c in itertools.combinations_with_replacement(
                       range(n_features), t)), key=lambda e: (sum(e), e))


def _pivoted_columns(gram, rel_tol=1e-10):
    """Greedy pivoted-Cholesky column selection on the Gram matrix.

    Returns indices whose span numerically equals the full column span;
    exactly/near collinear columns (e.g. squares of binary count features)
    are dropped. Deterministic, O(nb^3) on the tiny Gram.
    """
    n = gram.shape[0]
    diag0 = np.diag(gram).copy()
    work = gram.astype(float).copy()
    active = diag0 > 0
    selected = []
    for _ in range(n):
        dvals = np.where(active, np.diag(work), -np.inf)
        j = int(np.argmax(dvals))
        if not active[j] or dvals[j] <= rel_tol * diag0[j]:
            break
        selected.append(j)
        active[j] = False
        col = work[:, j].copy()
        work -= np.outer(col, col) / dvals[j]
    return sorted(selected)


def _columns(states):
    """The columns of the state blocks at one step, in block order."""
    return [block[:, j] for block in states for j in range(block.shape[1])]


class _StepBasis:
    """Per-step polynomial design over standardized state features.

    ``states`` is the state at the step as a sequence of (n, w) blocks of any
    real dtype (a batch passes its Brownian values and its jump counts);
    their columns, in order, are the candidate features. Exactly-constant
    features carry no information beyond the intercept and are dropped;
    numerically collinear monomials (squares of binary count features and
    the like) are removed by rank-revealing selection on the einsum-assembled
    Gram, so the fit is the projection onto the design's numerical column
    span. An under-determined design (more columns than paths: the normal
    equations cannot have full rank) raises ConditioningError naming the
    step. The basis keeps no per-path array: per kept feature its column,
    mean and std (``feats``), and the kept monomials' exponents and Gram.
    Every fit standardizes the columns of the states it is given again,
    with the same elementwise ops on the same scalars, so the design has the
    bits of the one the basis was built on.
    """

    def __init__(self, states, degree, step):
        n = states[0].shape[0]
        self.feats = [(j, col.mean(), col.std())
                      for j, col in enumerate(_columns(states))
                      if degree >= 1 and col.max() != col.min()]
        # counted before they are listed: C(features + degree, degree)
        n_funcs = math.comb(len(self.feats) + degree, degree)
        if n < n_funcs:
            raise ConditioningError(
                step, f"regression normal equations at step {step} are "
                      f"rank-deficient: {n_funcs} basis functions "
                      f"for {n} paths")
        exps = _monomial_exponents(len(self.feats), degree)
        design = self._fill(exps, states, np.empty((n, len(exps))))
        gram = np.einsum("ni,nj->ij", design, design, optimize=False)
        keep = _pivoted_columns(gram)
        self.exps = [exps[i] for i in keep]
        self.gram = gram[np.ix_(keep, keep)]

    def _fill(self, exps, states, design):
        """``design`` (n, len(exps)) filled with the monomials ``exps`` of
        the standardized features of ``states`` (a product from 1.0 or of
        x ** 1 has the same bits without them)."""
        cols = _columns(states)
        feats = [(cols[j] - mean) / std for j, mean, std in self.feats]
        for i, e in enumerate(exps):
            factors = [feat if power == 1 else feat ** power
                       for feat, power in zip(feats, e) if power]
            design[:, i] = (functools.reduce(np.multiply, factors)
                            if factors else 1.0)
        return design

    def design(self, states, buf):
        """The design on the states the basis was built on, refilled into
        the head of the flat buffer ``buf``, column by column (the layout
        ``design[:, keep]`` has)."""
        n, k = states[0].shape[0], len(self.exps)
        return self._fill(self.exps, states, buf[:n * k].reshape(k, n).T)

    def coefficients(self, design, targets):
        """Least-squares coefficients (kept columns, nt) of stacked targets
        (n, nt) on ``design``."""
        rhs = np.einsum("ni,nt->it", design, targets, optimize=False)
        return np.linalg.solve(self.gram, rhs)


def _combine(design, coefs):
    """``design @ coefs`` target-major, shaped (nt, n), summed as
    einsum("ni,it->nt") sums it: from zero, one column times its
    coefficients at a time, in basis order. Each target's row has the same
    bits whatever other columns ``coefs`` stacks beside it, and each add
    runs over n contiguous values."""
    out = np.zeros((coefs.shape[1], design.shape[0]))
    for col, coef in zip(design.T, coefs):
        out += coef[:, None] * col
    return out


# ---------------------------------------------------------------------------
# walk views: the leaf sweep (explicit trees) and the path batch's
# ---------------------------------------------------------------------------

class _LeafSweep:
    """Per-path functionals of lattice level arrays on an explicit tree.

    A path functional reads one level array per depth along every
    root-to-leaf path. The sweep never builds the (b^N, N+1) table of path
    states: it reads the tree's walk set (``ScenarioTree.walks``: per depth,
    the state of every path prefix, in leaf-id order), which every
    representation on the tree shares with the leaf weights. It goes one
    subtree at a time, whose prefixes at each depth are one slice of that
    depth's walks, so every per-path vector comes out in leaf-id order, the
    order of the walk set's leaf probabilities. Exact reductions (``fold``:
    max, first hit, left-to-right sums) run as running values over the
    prefixes; einsum reductions run on a contiguous (rows, depths[, width])
    block per subtree, whose per-row results do not depend on how the rows
    are chunked. Every per-path vector therefore equals, bit for bit, the one
    the path table gives, and memory stays O(b^N) floats (the walk set takes
    under 4/3 of a per-leaf float vector) instead of O(N b^N).

    Level lists start at depth ``k_lo`` (0 unless given); callers do
    elementwise work (abs, powers) on the levels, once per lattice node,
    before the sweep expands them. A reduction that ends above the leaves
    gives one value per prefix at its last depth; ``leaves`` repeats such a
    vector to its leaves (``fold`` and ``row_reduce`` leave that to the
    caller).

    A level list whose last depths are all zero -- a Picard sweep's
    differences below the settled tail and at the set terminal -- has the
    same row reductions per prefix at its last nonzero depth K (``live``)
    as per leaf: a max over non-negative levels ends at K, and a sum block
    keeps its full depth width with zero columns past K, so each row's
    einsum reads the same operands in the same places. The path meter
    reduces b^K prefix rows instead of b^N leaf rows, and elementwise work
    on the result (powers) is done per prefix before ``leaves`` repeats it.
    ``_BatchSweep`` gives a path batch the same interface.
    """

    CHUNK_ROWS = 1 << 14       # most prefixes in one subtree block

    def __init__(self, tree):
        self.walks, self.weights = tree.walks
        self.b = tree.branching
        self._chunk_depth = 0
        while self.b ** (self._chunk_depth + 1) <= self.CHUNK_ROWS:
            self._chunk_depth += 1

    def _subtrees(self, k_first, k_hi):
        """Prefix states at depths k_first..k_hi, one subtree at a time.

        The subtrees hang from depth c, so that each holds at most
        CHUNK_ROWS prefixes at depth k_hi; above c the single ancestor state
        is given.
        """
        b, c = self.b, max(0, k_hi - self._chunk_depth)
        for i in range(b ** c):
            yield [walk[i // b ** (c - j):][:1] if j < c
                   else walk[i * b ** (j - c):(i + 1) * b ** (j - c)]
                   for j, walk in enumerate(self.walks[k_first:k_hi + 1],
                                            k_first)]

    def _n_walks(self, depth):
        return self.b ** depth

    def leaves(self, *parts):
        """Per-path parts[0] + parts[1] + ..., added left to right, of
        per-prefix vectors at any depths (a vector's size gives its depth):
        the leaves below a prefix share its value. The sum of several parts
        is a new vector, added into without repeated copies of them."""
        total, rest = parts[0], parts[1:]
        if rest or total.size < self.weights.size:
            total = np.repeat(total, self.weights.size // total.size)
        for part in rest:
            total.reshape(part.size, -1)[...] += part[:, None]
        return total

    def _per_path(self, k_first, k_hi, per_subtree):
        """Per-prefix vector at depth k_hi, in leaf-id order.

        ``per_subtree(states)`` maps one subtree's prefix states at depths
        k_first..k_hi to a value per prefix at depth k_hi.
        """
        out = np.empty(self._n_walks(k_hi))
        pos = 0
        for states in self._subtrees(k_first, k_hi):
            vals = per_subtree(states)
            out[pos:pos + vals.size] = vals
            pos += vals.size
        return out

    def at_depth(self, level, depth):
        """Per-path value of one depth's level array."""
        return self.leaves(level[self.walks[depth]])

    def live(self, levels):
        """How many leading levels a reduction that ignores a zero tail
        reads: up to the last level with a nonzero entry, at least one."""
        n = len(levels)
        while n > 1 and not np.any(levels[n - 1]):
            n -= 1
        return n

    def fold(self, ufunc, levels, k_lo=0):
        """Per-prefix left fold of an elementwise binary ``ufunc`` over depths:
        ``np.maximum`` gives the max of each path's row, ``np.add`` its
        sequential sum (the same bits as a sum from 0.0 for levels without
        -0.0), and ``acc if acc >= h else val`` its value at the first
        depth where it is >= h, else at the last depth."""
        def per_subtree(states):
            acc = levels[0][states[0]]
            for lev, s in zip(levels[1:], states[1:]):
                acc = ufunc(acc[:, None], lev[s].reshape(acc.size, -1)).ravel()
            return acc
        return self._per_path(k_lo, k_lo + len(levels) - 1, per_subtree)

    def row_reduce(self, levels, reduce, k_lo, live):
        """Per-prefix ``reduce(block)`` where block[n, j] is prefix n's
        value of levels[j]: a row-wise reduction of the (rows, depths[,
        width]) path table, computed on one subtree's rows at a time. The
        levels past the first ``live`` are read as zero, so the rows are the
        prefixes at depth k_lo + live - 1, with zero columns past it."""
        def per_subtree(states):
            cols = [lev[s] for lev, s in zip(levels, states)]
            rows = len(cols[-1])
            block = np.empty((rows, len(levels)) + levels[0].shape[1:])
            block[:, live:] = 0.0
            for j, col in enumerate(cols):
                block.reshape((len(col), rows // len(col)) + block.shape[1:])[
                    :, :, j] = col[:, None]
            return reduce(block)
        return self._per_path(k_lo, k_lo + live - 1, per_subtree)


class _BatchSweep(_LeafSweep):
    """The walk view of a path batch, with uniform weights: each path is its
    own walk, so a level array already holds one value per walk (``leaves``
    and ``at_depth`` give it back). The reductions run on chunks of at most
    CHUNK_ROWS paths, which read one slice of each depth's level;
    ``row_reduce`` stacks a chunk's contiguous (rows, depths[, width])
    block, zero past the live depth as on a tree."""

    CHUNK_ROWS = 1 << 12       # most paths in one chunk

    def __init__(self, n_paths):
        self.weights = np.full(n_paths, 1.0 / n_paths)

    def _n_walks(self, depth):
        return self.weights.size

    def _subtrees(self, k_first, k_hi):
        for a in range(0, self.weights.size, self.CHUNK_ROWS):
            yield [slice(a, a + self.CHUNK_ROWS)] * (k_hi - k_first + 1)

    def at_depth(self, level, depth):
        return level


# ---------------------------------------------------------------------------
# norm meters and noise representations
# ---------------------------------------------------------------------------

_NOT_FINITE = "the solution is not finite (overflow in the backward induction)"


def _finite(levels):
    """The levels, each checked as it is read: overflowed iterates are a
    solver failure, not a norm to report."""
    for level in levels:
        if not np.all(np.isfinite(level)):
            raise NumericError(_NOT_FINITE)
        yield level


def _ascending(terms):
    """The values of a depth-keyed dict, in ascending depth order."""
    return [terms[k] for k in sorted(terms)]


class _Meter:
    """The norms (S^p, M^p, L^p) of one (Y, Z, V) triple -- in a Picard
    sweep, the difference of two iterates -- fed one depth at a time in any
    order: ``y(k, level)`` gives Y at depth k, ``zv(k, z, v)`` Z and V, and
    ``skip(k)`` says that all three are zero at depth k. A subclass keeps per
    depth what its representation's norms reduce (``_y``, ``_zv``,
    ``skip``) and reduces it in ascending depth order (``_sup``,
    ``_mp_lp``), so the result does not depend on the feeding order. Every
    level is checked for finiteness as it comes, but the verdict waits for
    the result: an overflowed iterate is a solver failure, raised after any
    error of the sweep that fed it."""

    def __init__(self, rep, p, k_lo=0):
        self.rep, self.p, self.k_lo = rep, p, k_lo
        self.finite = True

    def _check(self, *levels):
        self.finite = self.finite and all(np.all(np.isfinite(level))
                                          for level in levels)
        return self.finite

    def y(self, k, level):
        if self._check(level):
            self._y(k, level)

    def zv(self, k, z, v):
        if self._check(z, v):
            self._zv(k, z, v)

    def feed(self, y, z=(), v=()):
        """Feed per-depth fields from depth k_lo on, a depth's Y, Z and V
        in turn (one pass over the depths); returns the meter."""
        for k, (y_k, zv) in enumerate(itertools.zip_longest(y, zip(z, v)),
                                      self.k_lo):
            self.y(k, y_k)
            if zv is not None:
                self.zv(k, *zv)
        return self

    def _verdict(self):
        if not self.finite:
            raise NumericError(_NOT_FINITE)

    def sup(self):
        """S^p of the Y levels fed."""
        self._verdict()
        return self._sup()

    def norms(self):
        """(S^p, M^p, L^p) of the fields fed."""
        self._verdict()
        return (self._sup(), *self._mp_lp())


class _LatticeMeter(_Meter):
    """Exact marginal terms, one scalar per depth and norm: the means over
    the depth's states of |Y|^p (to the power 1/p), of |Z|^2 dt and of
    sum_i lambda_i |V_i|^p dt. S^p is the max of the first (the
    sup-of-marginals lower bound), M^p the root of the sum of the second
    (its q=2 form) and L^p the p-th root of the sum of the third (exact)."""

    def __init__(self, *args):
        super().__init__(*args)
        self.terms = {}, {}, {}            # depth -> S^p, M^p, L^p term

    def _y(self, k, y):
        p = self.p
        self.terms[0][k] = self.rep._mean(np.abs(y) ** p, k) ** (1 / p)

    def _zv(self, k, z, v):
        rep, dt = self.rep, self.rep.grid.dt
        self.terms[1][k] = rep._mean(np.einsum("nd,nd->n", z, z), k) * dt
        self.terms[2][k] = rep._mean(np.einsum(
            "nm,m->n", np.abs(v) ** self.p, rep.intensities), k) * dt

    def skip(self, k):
        for terms in self.terms:
            terms[k] = 0.0

    def _sup(self):
        return max(_ascending(self.terms[0]))

    def _mp_lp(self):
        return (math.sqrt(sum(_ascending(self.terms[1]))),
                sum(_ascending(self.terms[2])) ** (1 / self.p))


class _PathMeter(_Meter):
    """Norms of per-path functionals against the path weights, reduced
    along the walks of the representation's walk view (``rep.sweep``):
    sup_k |Y_k| (``_sup_abs``), sum_k |Z_k|^2 (``_z_sq``) and sum_k sum_i
    lambda_i |V_{k,i}|^p (``_v_p``) over each path's depths. It keeps the
    levels Z_k and |V_k|^p; a subclass accumulates |Y_k| (``_y``).

    Each functional comes per walk prefix at its live depth (``sweep.live``:
    the last depth whose level has a nonzero entry; on a batch each path is
    its own prefix at every depth). Powers are taken per prefix; only the
    weighted means run over the leaves, in leaf order, so every norm keeps
    its bits."""

    def __init__(self, *args):
        super().__init__(*args)
        self.levels = {}, {}               # depth -> Z_k, |V_k|^p

    def _zv(self, k, z, v):
        self.levels[0][k] = z
        self.levels[1][k] = np.abs(v) ** self.p

    def skip(self, k):
        rep, n = self.rep, self.rep.n_states(k)
        self._y(k, np.zeros(n))
        self.levels[0][k], self.levels[1][k] = (np.zeros((n, rep.d)),
                                                np.zeros((n, rep.m)))

    def _row_sums(self, levels, reduce):
        """Per-prefix ``reduce`` of the path rows."""
        levels, sweep = _ascending(levels), self.rep.sweep
        return sweep.row_reduce(levels, reduce, self.k_lo, sweep.live(levels))

    def _z_sq(self):
        return self._row_sums(
            self.levels[0], lambda block: np.einsum("njd,njd->n", block, block))

    def _v_p(self):
        lam = self.rep.intensities
        return self._row_sums(
            self.levels[1], lambda block: np.einsum("njm,m->n", block, lam))

    def _leaf_mean(self, per_prefix):
        """E of a per-prefix vector, over the leaves."""
        rep = self.rep
        return _wmean(rep.weights, rep.sweep.leaves(per_prefix))

    def _sup(self):
        p = self.p
        return self._leaf_mean(abs_pow(self._sup_abs(), p)) ** (1 / p)

    def _mp_lp(self):
        """M^p, from (sum_k |Z_k|^2 dt)^(p/2) per walk prefix, and L^p."""
        rep, p, dt = self.rep, self.p, self.rep.grid.dt
        mp = self._leaf_mean((self._z_sq() * dt) ** (p / 2.0)) ** (1 / p)
        v_p = rep.sweep.leaves(self._v_p())
        return mp, float(rep._expect(v_p) * dt) ** (1 / p)


class _TreeMeter(_PathMeter):
    """Keeps the levels |Y_k|; the leaf sweep folds them along the paths
    up to the live depth."""

    def __init__(self, *args):
        super().__init__(*args)
        self.abs_y = {}

    def _y(self, k, y):
        self.abs_y[k] = np.abs(y)

    def _sup_abs(self):
        levels, sweep = _ascending(self.abs_y), self.rep.sweep
        return sweep.fold(np.maximum, levels[:sweep.live(levels)], self.k_lo)


class _BatchMeter(_PathMeter):
    """A running max of |Y_k| per path (exact in any order: abs gives no
    -0.0), where keeping the levels would add N floats per path."""

    def __init__(self, *args):
        super().__init__(*args)
        self.sup_abs = np.zeros(self.rep.n_paths)

    def _y(self, k, y):
        np.maximum(self.sup_abs, np.abs(y), out=self.sup_abs)

    def _sup_abs(self):
        return self.sup_abs


class _Representation:
    """What the noise representations share: norms read through the meter
    of the representation (``_meter``), which a Picard sweep also feeds."""

    def meter(self, p, k_lo=0):
        return self._meter(self, p, k_lo)

    def sup_norm(self, y, p, k_lo=0):
        """S^p of one Y field."""
        return self.meter(p, k_lo).feed(y).sup()

    def norms(self, p, y, z, v, k_lo=0):
        """(S^p, M^p, L^p) of one (Y, Z, V) triple, each field read once."""
        return self.meter(p, k_lo).feed(y, z, v).norms()


class _PathEstimators(_Representation):
    """Estimators read from per-path functionals of the fields along the
    walks of a walk view (``sweep``), for the path batch (each path its own
    walk, uniform weights) and the explicit tree (root-to-leaf paths, leaf
    probabilities). A subclass gives ``sweep``, ``_expect`` and a path
    meter."""

    @property
    def weights(self):
        return self.sweep.weights

    def functional_terms(self, problem, p, sol):
        """The per-path functionals of ``estimates.solution_functionals``
        but the weights, by name, each as a function that computes it when
        called, so that a caller holds only the ones it needs. Each comes
        per walk prefix at the depth its reduction ends, for
        ``sweep.leaves``; the integrals in vectors of their own."""
        N, dt, sweep = self.grid.steps, self.grid.dt, self.sweep
        meter = self.meter(p).feed(sol.y, sol.z, sol.v)
        meter._verdict()
        return {"sup_abs_y": meter._sup_abs,
                "int_z_sq": lambda: meter._z_sq() * dt,
                "int_v_p": lambda: meter._v_p() * dt,
                "int_f0_abs": lambda: dt * sweep.fold(
                    np.add, _data_levels(self, problem)[:-1]),
                "xi_abs": lambda: sweep.at_depth(np.abs(sol.y[-1]), N)}

    def class_d(self, y):
        """Class-D estimator: the max of E|Y_tau| over the grid times and
        the first hits of |Y| >= h at the |Y_T| quantiles h > 0 of
        ``StoppingFamily.default_for``, each the ``fold`` that keeps a
        path's value once it reaches h; exact on a tree, a sample mean on a
        batch."""
        sweep, weights = self.sweep, self.sweep.weights
        abs_levels = [np.abs(lev) for lev in _finite(y)]
        best = max(_wmean(weights, sweep.at_depth(lev, k))
                   for k, lev in enumerate(abs_levels))
        terminal = sweep.at_depth(abs_levels[-1], len(abs_levels) - 1)
        levels = [float(np.quantile(terminal, q)) for q in (0.5, 0.9, 0.99)]
        del terminal                # one per-path vector at a time
        for h in levels:
            if h > 0:
                hit = sweep.leaves(sweep.fold(
                    lambda acc, val: np.where(acc >= h, acc, val), abs_levels))
                best = max(best, _wmean(weights, hit))
        return best


class _Projected(collections.abc.Sequence):
    """Z (``field`` 0) or V (1) of a solution, per depth: item j is
    ``rep.expand(sources[j], k_lo + j)``, read-only -- the projection of
    Y_{k+1} on the lattice, the expanded coefficient entry of step k on a
    path batch. The Z and V of one solution share ``last``, the depth read
    last and its fields, so a reader that takes Z_k and V_k in turn expands
    each depth once."""

    def __init__(self, rep, sources, k_lo, field, last):
        self.rep, self.sources, self.k_lo = rep, sources, k_lo
        self.field, self.last = field, last

    @classmethod
    def pair(cls, rep, sources, k_lo):
        last = [None, None]
        return cls(rep, sources, k_lo, 0, last), cls(rep, sources, k_lo, 1,
                                                      last)

    def __len__(self):
        return len(self.sources)

    def __getitem__(self, j):
        j = range(len(self))[j]
        if isinstance(j, range):
            return [self[i] for i in j]
        if self.last[0] != j:
            zv = self.rep.expand(self.sources[j], self.k_lo + j)
            for level in zv:
                level.flags.writeable = False
            self.last[:] = j, zv
        return self.last[1][self.field]


class _Lattice(_Representation):
    """The recombined state lattice of a scenario tree: E[. | F_k] and the
    Z / V projections are exact branch-weighted sums over each state's
    children. The children's values come from the lattice grid by slicing
    (``ScenarioTree.gather_children``: a row gather per jump outcome, a cube
    slice per sign), as the same C-contiguous (n_k, b) table a child-index
    gather gives, so the three einsums reduce the same bits. Since (Z_k,
    V_k) is a projection of Y_{k+1}, a Picard iterate and a solution keep
    the Y levels only and project (Z, V) from them when they are read.
    Without an explicit tree the estimators are the exact marginal ones,
    each an expectation ``_mean`` over one depth's states
    (``ScenarioTree.state_probs``)."""

    kind, estimator, batch, n_paths = "tree", "tree-marginal", None, None
    diagnostics = {}
    _meter = _LatticeMeter

    def __init__(self, problem, tree):
        if tree.grid.to_json_dict() != problem.grid.to_json_dict():
            raise ValueError("tree was built on a different grid")
        if tree.d != problem.d or tree.marks.m != problem.marks.m:
            raise ValueError("tree dimensions do not match the problem")
        self.tree, self.grid = tree, tree.grid
        self.n_states = tree.n_states
        self.intensities = problem.marks.intensities
        self.d, self.m = tree.d, tree.marks.m
        b, d, m = tree.branching, self.d, self.m
        sqrt_dt = math.sqrt(self.grid.dt)
        self._wz = (tree.branch_probs[:, None] * tree.sign_vectors
                    * (sqrt_dt / self.grid.dt))
        half_d = 0.5 ** d
        self._wv = np.zeros((b, m))
        for i in range(m):
            self._wv[tree.branch_jump == i, i] = half_d
            self._wv[tree.branch_jump == -1, i] -= half_d

    def context(self, problem, k):
        """The state context at depth k; its Brownian values and jump
        counts are built if a reader asks for them (the terminal and the
        zero section do, no built-in driver's ``bind`` does)."""
        tree = self.tree
        return problem.context(
            self.grid.nodes[k], lambda: tree.brownian_values(k),
            lambda: tree.levels[k].jump_counts.astype(float))

    def _zv(self, yc):
        return (np.einsum("nb,bd->nd", yc, self._wz),
                np.einsum("nb,bm->nm", yc, self._wv))

    def expand(self, y_next, k):
        """(Z_k, V_k) from the level at depth k+1, with the bits of
        ``project_frozen``'s: a solution's (Z_k, V_k) (``_Projected``)."""
        return self._zv(self.tree.gather_children(k, y_next))

    def project_frozen(self, y_next, k, y_old, entry):
        """Step k's projections of the new level ``y_next`` at depth k+1:
        (E[Y_{k+1} | F_k], the new Z_k, V_k, the frozen (Z_k, V_k), the new
        entry, which holds nothing). The frozen fields project ``y_old``,
        the level the sweep is about to overwrite; without it they are the
        new ones. The old level is projected first, so that one gather
        block is live at a time."""
        frozen = None if y_old is None else self.expand(y_old, k)
        yc = self.tree.gather_children(k, y_next)            # (n_k, b)
        cond_mean = np.einsum("nb,b->n", yc, self.tree.branch_probs)
        z, v = self._zv(yc)
        return cond_mean, z, v, (z, v) if frozen is None else frozen, None

    def fields(self, y, entries, k_lo):
        """The (Z, V) of a solution whose Y levels from depth k_lo are ``y``
        (its entries are all empty): sequences that project ``y`` when
        read."""
        return _Projected.pair(self, y[1:], k_lo)

    def _mean(self, level, k):
        """E[level] over the states at depth k."""
        return float(np.einsum("n,n->", self.tree.state_probs(k), level))

    def integrate(self, levels, combine):
        """E[combine(levels)] for a linear ``combine`` of the levels at
        depths 0, 1, ...: ``combine`` of their exact means, with SE 0."""
        return combine([self._mean(lev, k) for k, lev in enumerate(levels)]), 0.0

    def class_d(self, y):
        """Class-D estimator: deterministic times only, max_k E|Y_k|."""
        return self.sup_norm(y, 1)

    def functional_terms(self, problem, p, sol):
        self.tree._require_explicit("a path functional")


class _Tree(_PathEstimators, _Lattice):
    """An explicit tree: the lattice recursion, with every estimator but
    ``integrate`` read from the root-to-leaf paths by the leaf sweep (exact
    path probabilities)."""

    estimator = "tree"
    _meter = _TreeMeter

    @functools.cached_property
    def sweep(self):
        return _LeafSweep(self.tree)

    @property
    def n_paths(self):
        return self.tree.n_leaves

    def _expect(self, per_path):
        return np.einsum("n,n->", self.weights, per_path)


class _PathBatch(_PathEstimators):
    """A simulated path batch: E[. | F_k] by least-squares regression on the
    state at t_k, with each step's basis built once for every solve on the
    batch; every fit refills its design into one buffer the batch owns. The
    batch keeps the jump counts at every node, step-major (``_counts``), and
    the Brownian values as a ``_Checkpoints`` sequence over the nodes, of
    stride CHECKPOINT_STRIDE (``state``), with the bits of np.cumsum over
    the increments. A depth's level holds one value
    per path; at least 2 paths, so that sample means carry an SE. A Picard
    iterate's entry at depth k is its (Z_k, V_k) as that step's
    coefficients (``project_frozen``), which ``expand`` turns into per-path
    arrays when a solution's Z or V is read."""

    kind, estimator, tree = "paths", "mc", None
    _meter = _BatchMeter
    CHECKPOINT_STRIDE = 4      # Brownian values kept at every 4th node

    def __init__(self, problem, batch, degree):
        if batch.grid.to_json_dict() != problem.grid.to_json_dict():
            raise ValueError("batch was simulated on a different grid")
        if not (batch.has_brownian and batch.has_jumps):
            raise ValueError("batch must carry both noises")
        if batch.n_paths < 2:
            raise ValueError(f"a path batch needs at least 2 paths, got "
                             f"{batch.n_paths}")
        if degree < 0:
            raise ValueError("basis degree must be >= 0")
        self.batch, self.degree, self.grid = batch, degree, problem.grid
        self.d, self.m = problem.d, problem.marks.m
        self.intensities = problem.marks.intensities
        self.n_paths = batch.n_paths
        self.sweep = _BatchSweep(self.n_paths)
        self.diagnostics = {"basis_degree": degree}
        self._p_jump = -np.expm1(-self.intensities * self.grid.dt)   # (m,)
        self._norm_v = self._p_jump * (1.0 - self._p_jump)
        self._bases, self._design_buf = {}, np.empty(0)

    def n_states(self, k):
        return self.n_paths

    @functools.cached_property
    def _counts(self):
        """Per-mark jump counts (N+1, n, m) at every node, step-major: the
        cumulative sums of each path's jumps per mark, in the narrowest
        unsigned dtype that holds the largest."""
        batch, n, m = self.batch, self.n_paths, self.m
        path_of = batch.jump_paths
        totals = np.bincount(path_of * m + batch.jump_mark_idx,
                             minlength=n * m)
        counts = np.zeros((self.grid.steps + 1, n, m),
                          np.min_scalar_type(totals.max(initial=0)))
        # a jump in step j is counted from node j+1 on (never decreasing)
        np.add.at(counts, (batch.jump_steps + 1, path_of,
                           batch.jump_mark_idx), 1)
        np.cumsum(counts, axis=0, dtype=counts.dtype, out=counts)
        return counts

    @functools.cached_property
    def _brownian(self):
        """The Brownian values at the nodes, each path's increments added in
        turn, as np.cumsum adds them (node 1 is the first increment itself,
        not added to 0.0)."""
        inc = self.batch.brownian_increments

        def run(j, acc, stop):
            for i in range(j, stop):
                acc = inc[:, 0].copy() if i == 0 else acc + inc[:, i]
                yield acc
        return _Checkpoints(np.zeros((self.n_paths, self.d)), run,
                            self.grid.steps, self.CHECKPOINT_STRIDE)

    def state(self, k):
        """The state blocks at node k: (n, d) read-only, C-contiguous
        Brownian values, jump counts."""
        return [self._brownian.at(k), self._counts[k]]

    def context(self, problem, k):
        """The state context at node k; the float jump counts are built if
        a reader asks for them."""
        bvals, counts = self.state(k)
        return problem.context(self.grid.nodes[k], bvals,
                               lambda: counts.astype(float))

    def project_frozen(self, y_next, k, y_old, entry):
        """Step k's projections of the new level ``y_next`` at depth k+1,
        as ``_Lattice.project_frozen``'s, fitted jointly from the stacked
        targets Y, Y dB/dt and Y (1{jump} - p) / (p (1 - p)), the rows of
        one target-major (1 + d + m, n) table. An entry is the Z/V columns
        (kept basis columns, d + m) of the step's coefficients, or at k = 0
        the plain mean row (d + m,) every path shares. Given ``y_old``, the
        frozen fields are ``entry``'s, its fit, summed beside the new ones
        on the design the fit has just filled; else the new ones. Both come
        C-contiguous, as the driver has always read frozen fields."""
        n, d, dt = self.n_paths, self.d, self.grid.dt
        w = 1 + d + self.m
        counts = self._counts
        jump = counts[k + 1] != counts[k]     # no unsigned subtraction
        targets = np.empty((n, w))
        targets[:, 0] = y_next
        targets[:, 1:1 + d] = (y_next[:, None]
                               * self.batch.brownian_increments[:, k, :] / dt)
        targets[:, 1 + d:] = (y_next[:, None] * (jump - self._p_jump)
                              / self._norm_v)
        prev = None if y_old is None else entry
        if k == 0:
            # every path carries the same state at t_0: the projection given
            # trivial information is the plain mean
            mean = targets.mean(axis=0)
            fitted, new = np.broadcast_to(mean[:, None], (w, n)), mean[1:]
            old = fitted[1:].T if prev is None else self._broadcast(prev)
        else:
            states = self.state(k)
            if k not in self._bases:
                self._bases[k] = _StepBasis(states, self.degree, step=k)
                # the buffer holds the design of the widest basis built
                size = n * len(self._bases[k].exps)
                if self._design_buf.size < size:
                    self._design_buf = np.empty(size)
            basis = self._bases[k]
            design = basis.design(states, self._design_buf)
            beta = basis.coefficients(design, targets)
            fitted = _combine(design, beta if prev is None else np.hstack(
                [beta, prev]))
            new = beta[:, 1:]
            old = fitted[1:w].T if prev is None else fitted[w:].T
        own = map(np.ascontiguousarray, (old[:, :d], old[:, d:]))
        return (fitted[0], fitted[1:1 + d].T, fitted[1 + d:w].T, tuple(own),
                new)

    def fields(self, y, entries, k_lo):
        """The (Z, V) of entries from depth k_lo, expanded when read."""
        return _Projected.pair(self, entries, k_lo)

    def _broadcast(self, row):
        return np.broadcast_to(row, (self.n_paths, row.size))

    def expand(self, entry, k):
        """(Z_k, V_k) from an entry of depth k, each a C-contiguous copy of
        its own columns (a kept Z_k holds no V_k): the design of step k is
        refilled."""
        if entry.ndim == 1:
            zv = self._broadcast(entry)
        else:
            zv = _combine(self._bases[k].design(self.state(k),
                                                self._design_buf), entry).T
        return zv[:, :self.d].copy(), zv[:, self.d:].copy()

    def integrate(self, levels, combine):
        """The sample mean of combine(levels) over the paths, and its SE."""
        per_path = combine(levels)
        return (float(per_path.mean()),
                float(per_path.std(ddof=1) / math.sqrt(per_path.size)))

    def _expect(self, per_path):
        return np.mean(per_path)


def _empty(rep, problem, k_lo, k_hi):
    """A solution on ``rep`` over depths [k_lo, k_hi], its Y levels unset
    and its Z and V None."""
    return Solution(
        kind=rep.kind, grid=problem.grid, fingerprint=problem.fingerprint(),
        y0=math.nan, tree=rep.tree, batch=rep.batch,
        y=[np.empty(rep.n_states(k)) for k in range(k_lo, k_hi + 1)],
        diagnostics=dict(rep.diagnostics))


def _terminal(rep, problem):
    """xi on the states of ``rep`` at depth N; one that is not finite
    raises ConfigError at ``problem.terminal``, with no numpy warning."""
    with np.errstate(all="ignore"):
        xi = problem.terminal(rep.context(problem, problem.grid.steps))
    bad = np.count_nonzero(~np.isfinite(xi))
    if bad:
        raise ConfigError("problem.terminal", f"the terminal value is not "
                          f"finite on {bad} of {xi.size} states")
    return xi


def _data_levels(rep, problem):
    """|f(t_k, ., 0, 0, 0)| at depths k < N, then |xi| at depth N, on the
    states of ``rep``: the data of the integrability hypothesis."""
    N = rep.grid.steps
    zero = problem.generator.zero_section
    return ([np.abs(zero(rep.context(problem, k))) for k in range(N)]
            + [np.abs(_terminal(rep, problem))])


def _clamp_tail(rep, data, n):
    """E[|xi| 1{|xi|>n} + int |f(s,0,0,0)| 1{|f(s,0,0,0)|>n} ds] and its SE,
    from ``_data_levels``."""
    dt = rep.grid.dt

    def total(levels):
        out = levels[-1]
        for f0 in levels[:-1]:
            out = out + f0 * dt
        return out

    return rep.integrate([a * (a > n) for a in data], total)


def _setup(problem, method, tree=None, batch=None, node_cap=None,
           n_paths=10_000, seed=0, basis_degree=2):
    """The representation a solve runs on (the one place that picks it);
    builds the scenario tree or simulates the batch when none is given."""
    if method == "mc":
        if batch is None:
            batch = simulate_paths(problem.grid, problem.marks, problem.d,
                                   n_paths, seed)
        return _PathBatch(problem, batch, basis_degree)
    if method != "tree":
        raise ValueError(f"method must be 'tree' or 'mc', got {method!r}")
    if tree is None:
        tree = build_scenario_tree(problem.grid, problem.marks, problem.d,
                                   node_cap=node_cap)
    return (_Tree if tree.explicit else _Lattice)(problem, tree)


def _represent(solution, problem):
    """The representation a solution lives on (for its estimators): the one
    its (Z, V) sequences read, or a new one for (Z, V) lists."""
    if isinstance(solution.z, _Projected):
        return solution.z.rep
    method = {"tree": "tree", "paths": "mc"}[solution.kind]
    return _setup(problem, method, solution.tree, solution.batch)


_SETUP_KEYS = ("node_cap", "n_paths", "seed", "basis_degree")


def _prepare(problem, method, tree, batch, picard_kwargs, rep=None):
    """Set-up for entry points that run several solves on one
    representation: (representation, the remaining ``_picard`` keywords).
    ``check_assumptions`` defaults to True, as in ``picard_solve``, and
    runs once. A given ``rep`` is used as it is."""
    kwargs = dict(picard_kwargs)
    _check_grid(problem, method == "mc")
    if kwargs.pop("check_assumptions", True):
        _check_assumptions(problem, kwargs.get("seed", 0))
    setup = {key: kwargs.pop(key) for key in _SETUP_KEYS if key in kwargs}
    return rep or _setup(problem, method, tree, batch, **setup), kwargs


# ---------------------------------------------------------------------------
# the backward loop
# ---------------------------------------------------------------------------

def _same_bits(a, b):
    return np.array_equal(a.view(np.int64), b.view(np.int64))


def _check_grid(problem, batch=False):
    """kappa*dt, checked below 1 before a solve builds its tree or batch or
    reads its data; on a ``batch``, which regresses on jumps, so is each
    mark's step jump probability."""
    kappa, dt = problem.generator.lipschitz_kappa, problem.grid.dt
    if kappa * dt >= 1.0:
        raise StepSizeError(f"kappa*dt = {kappa * dt:g} >= 1; refine the "
                            f"grid (kappa={kappa:g}, dt={dt:g})")
    lam_dt = problem.marks.intensities * dt
    i = int(np.argmax(lam_dt))
    if batch and -np.expm1(-lam_dt[i]) == 1.0:
        raise ConfigError("problem.marks.intensities", f"lambda_{i}*dt = "
                          f"{lam_dt[i]:g}: every step jumps; refine the grid")
    return kappa * dt


def _backward(rep, problem, k_lo, k_hi, terminal_values, iterate=None,
              meter=None, settled=None, start=None):
    """Backward induction over depths [k_lo, k_hi], fields indexed from k_lo.

    Without ``iterate`` it fills a new solution and returns it: its entries
    start empty (None), and the driver sees each step's own projections
    (Z_k, V_k). With it, this is one Picard sweep over ``iterate`` (Y levels
    and per-depth entries that only the representation reads and makes), in
    place. At depth k the sweep projects the new Y_{k+1}, handing
    ``rep.project_frozen`` the old level for the previous sweep's frozen
    (Z_k, V_k), or None when Y_{k+1} kept its bits, and only then writes
    the new Y_{k+1} over the old. A first sweep freezes the constant fields
    ``start`` = (z0, v0) instead. ``meter`` takes the differences new - old.

    ``settled`` (None on a first sweep, whose start is no sweep's output)
    flags per depth whether the previous sweep left Y bitwise unchanged; the
    sweep updates it to its own flags. A depth whose Y_{k+1} this sweep and
    the previous one both left unchanged has the previous sweep's inputs
    bit for bit -- Y_{k+1}, the frozen (Z_k, V_k) projected from that same
    Y_{k+1}, and the context -- and so its outputs: it is skipped, and the
    meter records zero differences (``meter.skip``).
    """
    gen = problem.generator
    dt, kappa_dt = problem.grid.dt, _check_grid(problem)
    if iterate is None:
        sol = _empty(rep, problem, k_lo, k_hi)
        levels, entries = sol.y, [None] * (k_hi - k_lo)
    else:
        levels, entries = iterate
    y = np.asarray(terminal_values, dtype=float)        # the new Y_{k+1}
    if y.shape != levels[-1].shape:
        raise ValueError(
            f"terminal values shaped {y.shape} do not match the "
            f"{levels[-1].shape[0]} states at depth {k_hi}")
    if meter is not None:
        meter.y(k_hi, y - levels[-1])
    unchanged = settled is not None and _same_bits(y, levels[-1])

    for k in range(k_hi - 1, k_lo - 1, -1):
        j = k - k_lo
        if settled is not None:
            skip = unchanged and settled[j + 1]
            settled[j + 1] = unchanged
            if skip:
                meter.skip(k)          # and Y_k stays unchanged
                y = levels[j]
                continue
        old = None if unchanged or settled is None else levels[j + 1]
        cond_mean, z, v, frozen, entries[j] = rep.project_frozen(
            y, k, old, entries[j])
        if not unchanged:
            levels[j + 1][...] = y
        if start is not None:
            frozen = tuple(np.full((rep.n_states(k), width), value)
                           for width, value in zip((rep.d, rep.m), start))
        y = _solve_implicit(cond_mean,
                            gen.bind(rep.context(problem, k), *frozen),
                            dt, kappa_dt)
        if meter is not None:
            meter.y(k, y - levels[j])
            meter.zv(k, z - frozen[0], v - frozen[1])
        del cond_mean, z, v, frozen    # before the next step's projections
        if settled is not None:
            unchanged = _same_bits(y, levels[j])
    if not unchanged:
        levels[0][...] = y
    if iterate is None:
        sol.z, sol.v = rep.fields(levels, entries, k_lo)
        sol.y0 = float(levels[0][0])
        return sol


def _solve(rep, problem):
    _check_grid(problem, rep.batch is not None)
    return _backward(rep, problem, 0, problem.grid.steps,
                     _terminal(rep, problem))


def solve_tree(problem, tree):
    """Exact backward induction on the scenario tree (the oracle solver)."""
    return _solve(_setup(problem, "tree", tree=tree), problem)


def solve_mc_regression(problem, batch, basis_degree=2):
    """Least-squares Monte Carlo backward solver on a simulated path batch."""
    return _solve(_setup(problem, "mc", batch=batch,
                         basis_degree=basis_degree), problem)


# ---------------------------------------------------------------------------
# Picard iteration
# ---------------------------------------------------------------------------

def _check_assumptions(problem, seed):
    gen = problem.generator
    rep = check_lipschitz(gen, problem, n_pairs=64, seed=seed)
    if not math.isfinite(rep["kappa_hat"]):
        raise ConfigError("problem.generator", "the driver is not finite at "
                          f"the worst sampled pair {rep['worst_pair']}")
    if not rep["passed"]:
        # the declared constant is input the driver contradicts
        raise ConfigError("problem.generator.kappa", f"declared kappa="
                          f"{rep['declared']:g} is below the driver's measured "
                          f"Lipschitz modulus {rep['kappa_hat']:.6g} (worst "
                          f"pair {rep['worst_pair']})")
    rep = check_growth(gen, problem, n_points=64, seed=seed)
    if rep["passed"] is False:
        raise ConfigError(
            "problem.generator.alpha",
            f"the driver's (z, v)-increment exceeds the declared growth "
            f"bound gamma (g + |y| + |z| + ||v||)^alpha, alpha="
            f"{gen.growth_alpha:g}, gamma={gen.growth_gamma:g}, by a factor "
            f"{rep['max_ratio']:.6g} (worst point {rep['worst_point']})")


def _picard(rep, problem, tol=1e-9, max_iter=25, q=None,
            init=(0.0, 0.0, 0.0), k_hi=None, k_lo=0, terminal_values=None):
    """The Picard iteration of ``picard_solve`` on a given representation.

    It owns one iterate, Y levels at the constant ``init`` and per-depth
    (Z, V) entries that the representation makes (empty before the first
    sweep, which freezes the constant (z0, v0) instead), and every sweep
    (``_backward``) overwrites it in place while its meter takes each
    depth's differences before they are overwritten. The solution keeps
    the last sweep's Y levels and entries, and its (Z, V) are sequences
    that expand them when read (``rep.fields``): nothing is expanded
    here."""
    if max_iter < 1:
        raise ValueError(f"max_iter must be at least 1, got {max_iter}")
    if q is None:
        q = picard_q(problem.generator.growth_alpha)
    N = problem.grid.steps
    k_hi = N if k_hi is None else k_hi
    if terminal_values is None:
        if k_hi != N:
            raise ValueError("sub-range solves need explicit terminal values")
        terminal_values = _terminal(rep, problem)

    y0, z0, v0 = map(float, init)
    sol = _empty(rep, problem, k_lo, k_hi)
    for level in sol.y:
        level[...] = y0
    entries = [None] * (k_hi - k_lo)
    start, settled = (z0, v0), None
    trace = PicardTrace(q=q)
    for it in range(1, max_iter + 1):
        meter = rep.meter(q, k_lo)
        _backward(rep, problem, k_lo, k_hi, terminal_values,
                  iterate=(sol.y, entries), meter=meter, settled=settled,
                  start=start)
        if settled is None:
            start, settled = None, np.zeros(k_hi - k_lo + 1, dtype=bool)
        trace.n_iter = it
        trace.record(*meter.norms())
        if trace.dist[-1] <= tol:
            trace.converged = True
            break
        if (len(trace.ratios) >= 3 and min(trace.ratios[-3:]) >= 1.0
                and trace.dist[-1] > trace.dist[0]):
            trace.diverged = True
            sub_T = (k_hi - k_lo) * problem.grid.dt
            trace.message = (
                "Picard iteration is not contracting: measured ratios "
                f"{[round(r, 4) for r in trace.ratios]} on interval length "
                f"{sub_T:g}; subdivide the horizon (subdivide_horizon + "
                "chained_solve) and retry")
            break
    else:
        trace.message = (f"tolerance {tol:g} not reached in {max_iter} "
                         "iterations")
    del meter
    sol.z, sol.v = rep.fields(sol.y, entries, k_lo)
    sol.y0 = float(sol.y[0][0])
    sol.diagnostics["picard"] = trace.to_json_dict()
    return sol, trace


def picard_solve(problem, method="tree", tree=None, batch=None, tol=1e-9,
                 max_iter=25, q=None, init=(0.0, 0.0, 0.0), basis_degree=2,
                 n_paths=10_000, seed=0, k_hi=None, k_lo=0,
                 terminal_values=None, check_assumptions=True, node_cap=None):
    """Picard iteration freezing (z, v) at the previous iterate.

    Each iteration solves the inner problem whose driver sees frozen (z, v)
    fields (so it depends on y only); (Y^0, Z^0, V^0) default to (0, 0, 0).
    Returns (Solution, PicardTrace); on non-contraction the trace carries
    diverged=True with the measured ratios and subdivision advice instead of
    raising, so callers can act on the report.
    """
    rep, _ = _prepare(problem, method, tree, batch, {
        "check_assumptions": check_assumptions, "node_cap": node_cap,
        "n_paths": n_paths, "seed": seed, "basis_degree": basis_degree})
    return _picard(rep, problem, tol=tol, max_iter=max_iter, q=q, init=init,
                   k_hi=k_hi, k_lo=k_lo, terminal_values=terminal_values)


# ---------------------------------------------------------------------------
# horizon subdivision
# ---------------------------------------------------------------------------

def subdivide_horizon(T, kappa, q, c_emp, safety=0.5):
    """Smallest uniform split K with kappa*c_emp*(T/K)^(1-q/2) <= safety.

    The contraction constant has no usable closed form; c_emp is either
    user-supplied or calibrated from a pilot run's measured ratio via
    c_emp = r / (kappa * T^(1-q/2)). A calibrated c_emp of 0 (no measured
    contraction: every ratio 0) gives the one-interval plan. A plan of more
    than MAX_INTERVALS intervals raises ValueError before anything of its
    size is built.
    """
    if not 1.0 < q < 2.0:
        raise ValueError(f"q must lie in (1,2), got {q}")
    if c_emp < 0:
        raise ValueError("c_emp must be non-negative")
    if not 0.0 < safety < 1.0:
        raise ValueError("safety must lie in (0,1)")

    def bound(k):       # falls as k grows; a product that is inf at worst
        return kappa * c_emp * (T / k) ** (1.0 - q / 2.0)
    if bound(MAX_INTERVALS) > safety:
        raise ValueError(f"the plan needs more than {MAX_INTERVALS} "
                         f"intervals: kappa*c_emp*(T/K)^(1-q/2) = "
                         f"{bound(MAX_INTERVALS):g} > safety at that K")
    lo, hi = 1, MAX_INTERVALS       # bisect for the smallest k within it
    while lo < hi:
        mid = (lo + hi) // 2
        lo, hi = (mid + 1, hi) if bound(mid) > safety else (lo, mid)
    breakpoints = np.linspace(0.0, T, lo + 1)
    breakpoints.setflags(write=False)
    return SubdivisionPlan(breakpoints, q, kappa, c_emp, safety, bound(lo))


def _join(rep, problem, pieces):
    """One solution over [0, N] from ascending (k_lo, sub-range solution)
    pieces, holding their level arrays; a piece's last Y is the next
    piece's terminal value, whose first Y is kept in its place. Their (Z, V)
    read the joined Y levels and entries (``rep.fields``)."""
    y = []
    for k_lo, piece in pieces:
        del y[k_lo:]
        y += piece.y
    z, v = rep.fields(y, [e for _, piece in pieces for e in piece.z.sources],
                      0)
    return replace(pieces[0][1], y0=float(y[0][0]), y=y, z=z, v=v,
                   diagnostics=dict(rep.diagnostics))


def chained_solve(problem, plan, method="tree", tree=None, batch=None,
                  **picard_kwargs):
    """Solve backward interval by interval along a subdivision plan.

    The terminal condition of interval k is the Y produced at its right
    endpoint by interval k+1 (a function of the state via tree nodes or the
    regression fit). Returns (Solution, [PicardTrace per interval, last
    interval first]). K=1 reduces to a single picard_solve.
    """
    K = plan.k_intervals
    N = problem.grid.steps
    if abs(plan.breakpoints[-1] - problem.grid.horizon) > 1e-12:
        raise ValueError("plan does not cover the problem horizon")
    if N % K != 0:
        raise ValueError(
            f"grid steps {N} not divisible by {K} intervals; "
            "choose N as a multiple of the plan size")
    step = N // K
    rep, kwargs = _prepare(problem, method, tree, batch, picard_kwargs)

    terminal_values = None
    traces = []
    pieces = []
    for i in range(K - 1, -1, -1):
        k_lo, k_hi = i * step, (i + 1) * step
        try:
            sol_i, tr_i = _picard(rep, problem, k_hi=k_hi, k_lo=k_lo,
                                  terminal_values=terminal_values, **kwargs)
        except Exception as e:
            e.args = ((f"interval {i} [{plan.breakpoints[i]:g}, "
                       f"{plan.breakpoints[i + 1]:g}]: {e}"),)
            raise
        traces.append(tr_i)
        pieces.append((k_lo, sol_i))
        terminal_values = sol_i.y[0]

    out = _join(rep, problem, pieces[::-1])
    out.diagnostics["subdivision_plan"] = plan.to_json_dict()
    out.diagnostics["intervals_converged"] = [t.converged for t in traces]
    return out, traces


# ---------------------------------------------------------------------------
# truncation ladder
# ---------------------------------------------------------------------------

def truncation_ladder_solve(problem, n_list, method="tree", tree=None,
                            batch=None, tol=1e-3, picard_tol=1e-9,
                            **picard_kwargs):
    """Solve the ladder of clamped problems and check the class-D Cauchy bound.

    For each pair (n_lo, n_hi) the measured class-D distance between the two
    solutions is reported against the clamp-tail bound at n_lo. Ladder-Cauchy
    is declared when every rung's Picard iteration converged (to
    ``picard_tol``) and the last consecutive pair has both below ``tol``: a
    stopped rung's error would count as a distance between the clamped
    problems. Every rung runs on one representation.
    """
    n_list = [float(n) for n in n_list]
    if any(b <= a for a, b in zip(n_list, n_list[1:])) or any(
            n <= 0 for n in n_list):
        raise ValueError("n_list must be strictly increasing and positive")
    rep, kwargs = _prepare(problem, method, tree, batch, picard_kwargs)
    _terminal(rep, problem)         # checked before a rung clamps it finite

    levels, solutions = [], []
    for n in n_list:
        sol, tr = _picard(rep, truncate_problem(problem, n), tol=picard_tol,
                          **kwargs)
        levels.append({"n": n, "y0": sol.y0, "converged": tr.converged})
        solutions.append(sol)

    pairs = []
    data = _data_levels(rep, problem)
    for i in range(len(n_list) - 1):
        bound, se = _clamp_tail(rep, data, n_list[i])
        for j in range(i + 1, len(n_list)):
            measured = rep.class_d(map(np.subtract, solutions[j].y,
                                       solutions[i].y))
            pairs.append({"n_lo": n_list[i], "n_hi": n_list[j],
                          "measured_d_norm": measured, "bound": bound,
                          "bound_se": se,
                          "within_bound": measured <= bound + 3 * se})
    last = [p for p in pairs
            if (p["n_lo"], p["n_hi"]) == (n_list[-2], n_list[-1])]
    cauchy = bool(all(lev["converged"] for lev in levels)
                  and last and last[0]["measured_d_norm"] <= tol
                  and last[0]["bound"] <= tol)
    return LadderReport(levels=levels, pairs=pairs, cauchy=cauchy, tol=tol,
                        solutions=solutions)


# ---------------------------------------------------------------------------
# diagnostics
# ---------------------------------------------------------------------------

def bsde_residual_max(solution, problem):
    """Max absolute per-branch residual of the discrete backward equation:

        Y_{k+1} - [ Y_k - f dt + Z dB + sum_i V_i (1{jump i} - p_i) ]

    Zero (to fp rounding) exactly when one-step values are additively
    separable in (sign, jump outcome) -- in particular on affine instances;
    in general it measures the projection remainder. A branch's residual
    depends on its parent state and branch index only, so the max runs over
    the (state, branch) pairs of each depth: the same values as over the
    tree's nodes, since every lattice state is reached.
    """
    if solution.kind != "tree":
        raise ValueError("residual diagnostic is defined on tree solutions")
    rep = _represent(solution, problem)
    tree = solution.tree
    dt = tree.grid.dt
    # per-mark one-step probabilities implied by the branch table (the sign
    # combinations of a jump branch already sum to (lambda_i/Lambda)(1-e^-x))
    p_mark = np.array([tree.branch_probs[tree.branch_jump == i].sum()
                       for i in range(tree.marks.m)])
    # per branch: dB and 1{jump i} - p_i, broadcast over each depth's states
    db = tree.sign_vectors * math.sqrt(dt)
    dn = (tree.branch_jump[:, None] == np.arange(tree.marks.m)) - p_mark
    worst = 0.0
    for k in range(tree.grid.steps):
        f_k = problem.generator(rep.context(problem, k), solution.y[k],
                                solution.z[k], solution.v[k])
        resid = (tree.gather_children(k, solution.y[k + 1])   # (n_k, b)
                 - solution.y[k][:, None] + (f_k * dt)[:, None]
                 - np.einsum("nd,bd->nb", solution.z[k], db)
                 - np.einsum("nm,bm->nb", solution.v[k], dn))
        worst = max(worst, float(np.max(np.abs(resid))))
    return worst


@np.errstate(over="ignore", invalid="ignore")
def solution_norms(solution, problem, p=None):
    """S^p / M^p / L^p norms of a Solution, with the estimator tag."""
    p = problem.p if p is None else p
    rep = _represent(solution, problem)
    sp, mp, lp = rep.norms(p, solution.y, solution.z, solution.v)
    if not all(map(math.isfinite, (sp, mp, lp))):
        raise NumericError(f"the norms are not finite at p = {p:g}: "
                           f"sp {sp!r}, mp {mp!r}, lp {lp!r}")
    return {"sp": sp, "mp": mp, "lp": lp, "p": p, "estimator": rep.estimator,
            "n_paths": rep.n_paths}
