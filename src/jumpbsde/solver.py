"""Backward solvers: exact tree induction, Monte Carlo regression, the Picard
iteration with contraction monitoring, horizon subdivision, and the truncation
ladder for data that are merely integrable.

Per-step scheme (both representations): implicit in y, explicit in (z, v) --
    Y_k = fixpoint of  y -> E[Y_{k+1} | info_k] + f(t_k, state, y, Z_k, V_k) dt
with Z_k the increment projection E[Y_{k+1} dB]/dt and V_k(e_i) the
jump-conditional difference E[Y_{k+1} | jump e_i] - E[Y_{k+1} | no jump].
The fixed point contracts at rate kappa*dt; the iteration runs a count that
depends only on kappa*dt (plus an exact-equality early exit) so power-of-two
input scalings reproduce bit-identical solutions on the tree.

The Picard engine re-solves with (z, v) frozen at the previous iterate -- the
inner problem's driver depends on y only -- and records successive distances
in the (S^q, M^q, L^q) sample norms. On explicit trees those norms are exact
via a leaf sweep; on implicit lattices S^q is replaced by the exact
sup-of-marginals lower bound and M^q by its q=2 form (L^q is a linear
functional and stays exact). Non-contraction (three consecutive ratios >= 1)
produces a divergence report advising horizon subdivision.

Lattice reductions use einsum(optimize=False) rather than BLAS, so results
are bit-stable across thread counts; per-path regression assembly reduces in
a fixed order for the same reason.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConditioningError, NumericError, StepSizeError
from .generators import check_lipschitz, truncate_problem
from .norms import (ProcessSample, StoppingFamily, class_d_norm, mp_from_sq,
                    sp_from_sup)
from .randomness import build_scenario_tree, simulate_paths

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


# ---------------------------------------------------------------------------
# containers
# ---------------------------------------------------------------------------

@dataclass
class Solution:
    """Adapted triple (Y, Z, V) on a tree lattice or a path batch."""

    kind: str                      # "tree" | "paths"
    grid: object
    fingerprint: str
    y0: float
    tree: object = None
    y_levels: list = None          # per depth: (n_k,)
    z_levels: list = None          # per depth < N: (n_k, d)
    v_levels: list = None          # per depth < N: (n_k, m)
    batch: object = None
    y_paths: np.ndarray = None     # (n, N+1)
    z_paths: np.ndarray = None     # (n, N, d)
    v_paths: np.ndarray = None     # (n, N, m)
    diagnostics: dict = field(default_factory=dict)

    def terminal_values(self):
        return self.y_levels[-1] if self.kind == "tree" else self.y_paths[:, -1]


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
    solutions: list = field(repr=False, default_factory=list)

    @property
    def final_solution(self):
        return self.solutions[-1]

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

def _fixpoint_iterations(kappa_dt, max_inner):
    if kappa_dt == 0.0:
        return 1
    n = int(math.ceil(-53.0 * math.log(2.0) / math.log(kappa_dt))) + 2
    if n > max_inner:
        raise NumericError(
            f"per-step fixed point needs ~{n} iterations at kappa*dt="
            f"{kappa_dt:g}, above the configured budget {max_inner}")
    return n


def _solve_implicit(cond_mean, f_of_y, dt, kappa_dt, max_inner):
    """Fixed point of y -> cond_mean + f(y) dt, vectorized over nodes.

    ``f_of_y`` is a bound driver (GeneratorSpec.bind). When it is row-wise, a
    row whose update repeats its value bit for bit is an exact fixed point:
    it can never move again, and evaluating it again gives the same bits.
    Such rows are dropped from the evaluated set once they make up at least
    half of it (gathering a subset costs more than evaluating a few settled
    rows along). Other drivers see every row on every iteration. Either way
    the iterates are those of the whole-array iteration, which stops early
    once two successive iterates are equal.
    """
    n_iter = _fixpoint_iterations(kappa_dt, max_inner)
    row_wise = getattr(f_of_y, "row_wise", False)
    y, f_val = cond_mean, f_of_y(cond_mean)
    rows = slice(None)          # the rows still moving
    for _ in range(n_iter):
        y_old = y[rows]
        y_new = cond_mean[rows] + f_val[rows] * dt
        done = np.array_equal(y_new, y_old)
        if row_wise:
            moved = y_new.view(np.int64) != y_old.view(np.int64)
            if 2 * np.count_nonzero(moved) <= moved.size:
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
    resid = np.abs(y - (cond_mean + f_val * dt))
    scale = np.abs(y) + np.abs(cond_mean) + np.abs(f_val * dt)
    if not np.all(resid <= 512.0 * np.finfo(float).eps * scale):
        raise NumericError(
            "per-step fixed point not converged "
            f"(max residual {float(np.max(resid)):.3e})")
    return y


# ---------------------------------------------------------------------------
# tree backward induction (exact lattice recursion)
# ---------------------------------------------------------------------------

def _tree_weights(tree):
    """Branch weights for the conditional mean, Z projection, V difference."""
    b, d, m = tree.branching, tree.d, tree.marks.m
    sqrt_dt = math.sqrt(tree.grid.dt)
    wz = tree.branch_probs[:, None] * tree.sign_vectors * (sqrt_dt / tree.grid.dt)
    half_d = 0.5 ** d
    wv = np.zeros((b, m))
    for i in range(m):
        wv[tree.branch_jump == i, i] = half_d
        wv[tree.branch_jump == -1, i] -= half_d
    return wz, wv


def _check_tree_matches(problem, tree):
    if tree.grid.to_json_dict() != problem.grid.to_json_dict():
        raise ValueError("tree was built on a different grid")
    if tree.d != problem.d or tree.marks.m != problem.marks.m:
        raise ValueError("tree dimensions do not match the problem")


def _tree_context(problem, tree, depth):
    return problem.context(tree.grid.nodes[depth], tree.brownian_values(depth),
                           tree.levels[depth].jump_counts.astype(float))


def _tree_backward(problem, tree, k_hi, k_lo, terminal_values, frozen=None,
                   max_inner=100_000):
    """Exact backward induction over depths [k_lo, k_hi]; level lists are
    indexed relative to k_lo."""
    gen = problem.generator
    dt = tree.grid.dt
    kappa_dt = gen.lipschitz_kappa * dt
    if kappa_dt >= 1.0:
        raise StepSizeError(
            f"kappa*dt = {kappa_dt:g} >= 1; refine the grid "
            f"(kappa={gen.lipschitz_kappa:g}, dt={dt:g})")
    wz, wv = _tree_weights(tree)

    n_levels = k_hi - k_lo + 1
    y_levels = [None] * n_levels
    z_levels = [None] * (n_levels - 1)
    v_levels = [None] * (n_levels - 1)
    term = np.asarray(terminal_values, dtype=float)
    if term.shape != (tree.n_states(k_hi),):
        raise ValueError(
            f"terminal values shaped {term.shape} do not match the lattice "
            f"({tree.n_states(k_hi)} states at depth {k_hi})")
    y_levels[-1] = term

    for k in range(k_hi - 1, k_lo - 1, -1):
        yc = y_levels[k - k_lo + 1][tree.children[k]]          # (n_k, b)
        cond_mean = np.einsum("nb,b->n", yc, tree.branch_probs)
        z = np.einsum("nb,bd->nd", yc, wz)
        v = np.einsum("nb,bm->nm", yc, wv)
        if frozen is not None:
            z_arg, v_arg = frozen[0][k - k_lo], frozen[1][k - k_lo]
        else:
            z_arg, v_arg = z, v
        ctx = _tree_context(problem, tree, k)
        y = _solve_implicit(cond_mean, gen.bind(ctx, z_arg, v_arg),
                            dt, kappa_dt, max_inner)
        y_levels[k - k_lo] = y
        z_levels[k - k_lo] = z
        v_levels[k - k_lo] = v
    return y_levels, z_levels, v_levels


def solve_tree(problem, tree, max_inner=100_000):
    """Exact backward induction on the scenario tree (the oracle solver)."""
    _check_tree_matches(problem, tree)
    N = tree.grid.steps
    term = problem.terminal(_tree_context(problem, tree, N))
    y, z, v = _tree_backward(problem, tree, N, 0, term, max_inner=max_inner)
    return Solution(kind="tree", grid=tree.grid,
                    fingerprint=problem.fingerprint(),
                    y0=float(y[0][0]), tree=tree,
                    y_levels=y, z_levels=z, v_levels=v)


# ---------------------------------------------------------------------------
# Monte Carlo regression solver
# ---------------------------------------------------------------------------

def _monomial_exponents(n_features, degree):
    """All exponent tuples with total degree <= degree, in a fixed order."""
    out = [tuple([0] * n_features)]
    frontier = [tuple([0] * n_features)]
    for _ in range(degree):
        new = []
        seen = set()
        for e in frontier:
            for i in range(n_features):
                cand = list(e)
                cand[i] += 1
                t = tuple(cand)
                if t not in seen:
                    seen.add(t)
                    new.append(t)
        frontier = new
        out.extend(new)
    return sorted(set(out), key=lambda e: (sum(e), e))


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


class _StepBasis:
    """Per-step polynomial design over standardized state features.

    Exactly-constant features carry no information beyond the intercept and
    are dropped; numerically collinear monomials (squares of binary count
    features and the like) are removed by rank-revealing selection on the
    einsum-assembled Gram, so the fit is the projection onto the design's
    numerical column span. An under-determined design (more columns than
    paths: the normal equations cannot have full rank) raises
    ConditioningError naming the step.
    """

    def __init__(self, states, degree, step):
        cols = []
        for j in range(states.shape[1]):
            col = states[:, j]
            if col.max() == col.min():
                continue
            cols.append((col - col.mean()) / col.std())
        self.step = step
        if cols and degree >= 1:
            feats = np.stack(cols, axis=1)
            exps = _monomial_exponents(feats.shape[1], degree)
            design = np.empty((states.shape[0], len(exps)))
            for i, e in enumerate(exps):
                col = np.ones(states.shape[0])
                for j, power in enumerate(e):
                    if power:
                        col = col * feats[:, j] ** power
                design[:, i] = col
        else:
            design = np.ones((states.shape[0], 1))
        if design.shape[0] < design.shape[1]:
            raise ConditioningError(
                step, f"regression normal equations at step {step} are "
                      f"rank-deficient: {design.shape[1]} basis functions "
                      f"for {design.shape[0]} paths")
        gram = np.einsum("ni,nj->ij", design, design, optimize=False)
        keep = _pivoted_columns(gram)
        self.design = design[:, keep]
        self.gram = gram[np.ix_(keep, keep)]

    def fit(self, targets):
        """Least-squares fitted values for stacked targets (n, nt)."""
        rhs = np.einsum("ni,nt->it", self.design, targets, optimize=False)
        beta = np.linalg.solve(self.gram, rhs)
        return np.einsum("ni,it->nt", self.design, beta, optimize=False)


def _mc_backward(problem, batch, basis_degree, k_hi, k_lo, terminal_values,
                 frozen=None, max_inner=100_000, basis_cache=None,
                 state_cache=None):
    gen = problem.generator
    grid, d, m = problem.grid, problem.d, problem.marks.m
    dt = grid.dt
    kappa_dt = gen.lipschitz_kappa * dt
    if kappa_dt >= 1.0:
        raise StepSizeError(f"kappa*dt = {kappa_dt:g} >= 1; refine the grid")
    n = batch.n_paths
    if state_cache is None:
        state_cache = batch.state_paths()
    bvals, counts = state_cache
    jump_ind = (np.diff(counts, axis=1) > 0).astype(float)    # (n, N, m)
    p_jump = -np.expm1(-problem.marks.intensities * dt)       # (m,)
    norm_v = p_jump * (1.0 - p_jump)

    n_levels = k_hi - k_lo + 1
    Y = np.empty((n, n_levels))
    Z = np.empty((n, n_levels - 1, d))
    V = np.empty((n, n_levels - 1, m))
    Y[:, -1] = terminal_values

    for k in range(k_hi - 1, k_lo - 1, -1):
        y_next = Y[:, k - k_lo + 1]
        db = batch.brownian_increments[:, k, :]
        targets = np.empty((n, 1 + d + m))
        targets[:, 0] = y_next
        targets[:, 1:1 + d] = y_next[:, None] * db / dt
        targets[:, 1 + d:] = (y_next[:, None] * (jump_ind[:, k, :] - p_jump)
                              / norm_v)
        if k == 0:
            # every path carries the same state at t_0: the projection given
            # trivial information is the plain mean
            fitted = np.broadcast_to(targets.mean(axis=0), targets.shape)
        else:
            if basis_cache is not None and k in basis_cache:
                basis = basis_cache[k]
            else:
                states = np.concatenate((bvals[:, k, :], counts[:, k, :]),
                                        axis=1)
                basis = _StepBasis(states, basis_degree, step=k)
                if basis_cache is not None:
                    basis_cache[k] = basis
            fitted = basis.fit(targets)
        cond_mean = fitted[:, 0]
        z = fitted[:, 1:1 + d]
        v = fitted[:, 1 + d:]
        if frozen is not None:
            z_arg, v_arg = frozen[0][:, k - k_lo, :], frozen[1][:, k - k_lo, :]
        else:
            z_arg, v_arg = z, v
        ctx = problem.context(grid.nodes[k], bvals[:, k, :], counts[:, k, :])
        Y[:, k - k_lo] = _solve_implicit(
            cond_mean, gen.bind(ctx, z_arg, v_arg), dt, kappa_dt, max_inner)
        Z[:, k - k_lo, :] = z
        V[:, k - k_lo, :] = v
    return Y, Z, V


def solve_mc_regression(problem, batch, basis_degree=2, max_inner=100_000):
    """Least-squares Monte Carlo backward solver on a simulated path batch."""
    if batch.grid.to_json_dict() != problem.grid.to_json_dict():
        raise ValueError("batch was simulated on a different grid")
    if not (batch.has_brownian and batch.has_jumps):
        raise ValueError("batch must carry both noises")
    if basis_degree < 0:
        raise ValueError("basis degree must be >= 0")
    N = problem.grid.steps
    state_cache = batch.state_paths()
    bvals, counts = state_cache
    ctx_T = problem.context(problem.grid.horizon, bvals[:, -1], counts[:, -1])
    Y, Z, V = _mc_backward(problem, batch, basis_degree, N, 0,
                           problem.terminal(ctx_T), state_cache=state_cache)
    return Solution(kind="paths", grid=problem.grid,
                    fingerprint=problem.fingerprint(),
                    y0=float(Y[0, 0]), batch=batch,
                    y_paths=Y, z_paths=Z, v_paths=V,
                    diagnostics={"basis_degree": basis_degree})


# ---------------------------------------------------------------------------
# sample norms of iterate differences
# ---------------------------------------------------------------------------

class _LeafSweep:
    """Per-path functionals of lattice level arrays on an explicit tree.

    A path functional reads one level array per depth along every
    root-to-leaf path. The sweep never builds the (b^N, N+1) table of path
    states: it walks the tree one subtree at a time, carrying the prefix
    states from depth to depth (``children[k][prefix].ravel()``), so every
    per-path vector comes out in leaf-id order, the order of
    ``ScenarioTree.enumerate_paths``. Exact reductions (max, first hit,
    left-to-right sums) run as running values over the prefixes; einsum
    reductions run on a contiguous (rows, depths[, width]) block per subtree,
    whose per-row results do not depend on how the rows are chunked. Every
    per-path vector therefore equals, bit for bit, the one the path table
    gives, and memory stays O(b^N) floats instead of O(N b^N).

    Level lists start at depth ``k_lo``; callers do elementwise work (abs,
    powers) on the levels, once per lattice node, before the sweep expands
    them.
    """

    CHUNK_ROWS = 1 << 14       # most prefixes in one subtree block

    def __init__(self, tree, k_lo=0):
        tree._require_explicit("a path functional")
        self.tree, self.k_lo = tree, k_lo
        b = tree.branching
        self._chunk_depth = 0
        while b ** (self._chunk_depth + 1) <= self.CHUNK_ROWS:
            self._chunk_depth += 1
        # exact leaf probabilities, multiplied in enumerate_paths' order
        w = np.ones(1)
        for _ in range(tree.grid.steps):
            w = (w[:, None] * tree.branch_probs).ravel()
        self.weights = w

    def _subtrees(self, k_first, k_hi):
        """Prefix states at depths k_first..k_hi, one subtree at a time.

        The subtrees hang from depth c, so that each holds at most
        CHUNK_ROWS prefixes at depth k_hi; above c the single ancestor state
        is given.
        """
        tree, b = self.tree, self.tree.branching
        c = max(0, k_hi - self._chunk_depth)
        top = [np.zeros(1, dtype=np.int64)]
        for k in range(c):
            top.append(tree.children[k][top[k]].ravel())
        for i in range(b ** c):
            states = [top[j][[i // b ** (c - j)]] for j in range(k_first, c)]
            s = top[c][i:i + 1]
            for j in range(c, k_hi + 1):
                if j >= k_first:
                    states.append(s)
                if j < k_hi:
                    s = tree.children[j][s].ravel()
            yield states

    def _per_path(self, k_first, k_hi, per_subtree):
        """Per-path vector over all leaves, in leaf-id order.

        ``per_subtree(states)`` maps one subtree's prefix states at depths
        k_first..k_hi to a value per prefix at depth k_hi; the leaves below a
        prefix share its value.
        """
        b, n_steps = self.tree.branching, self.tree.grid.steps
        out = np.empty(b ** k_hi)
        pos = 0
        for states in self._subtrees(k_first, k_hi):
            vals = per_subtree(states)
            out[pos:pos + vals.size] = vals
            pos += vals.size
        return out if k_hi == n_steps else np.repeat(out, b ** (n_steps - k_hi))

    def at_depth(self, level, depth):
        """Per-path value of one depth's level array."""
        return self._per_path(depth, depth, lambda states: level[states[0]])

    def fold(self, ufunc, levels):
        """Per-path left-to-right ``ufunc`` over depths: ``np.maximum`` gives
        the max of each path's row, ``np.add`` its sequential sum (the same
        bits as a sum from 0.0 for levels without -0.0)."""
        def per_subtree(states):
            acc = levels[0][states[0]]
            for lev, s in zip(levels[1:], states[1:]):
                acc = ufunc(acc[:, None], lev[s].reshape(acc.size, -1)).ravel()
            return acc
        return self._per_path(self.k_lo, self.k_lo + len(levels) - 1,
                              per_subtree)

    def first_hit(self, levels, threshold):
        """Per-path value at the first depth where it is >= threshold, else
        at the last depth (``StoppingRule('hit')`` on non-negative levels)."""
        def per_subtree(states):
            acc = np.full(1, np.nan)             # nan: not hit yet
            for lev, s in zip(levels, states):
                val = lev[s]
                acc = np.repeat(acc, val.size // acc.size)
                fresh = np.isnan(acc) & (val >= threshold)
                acc[fresh] = val[fresh]
            return np.where(np.isnan(acc), val, acc)
        return self._per_path(self.k_lo, self.k_lo + len(levels) - 1,
                              per_subtree)

    def row_reduce(self, levels, reduce):
        """Per-path ``reduce(block)`` where block[n, j] is path n's value of
        levels[j]: a row-wise reduction of the (rows, depths[, width]) path
        table, computed on one subtree's rows at a time."""
        def per_subtree(states):
            rows = states[-1].size
            block = np.empty((rows, len(levels)) + levels[0].shape[1:])
            for j, (lev, s) in enumerate(zip(levels, states)):
                block.reshape((s.size, rows // s.size) + block.shape[1:])[
                    :, :, j] = lev[s][:, None]
            return reduce(block)
        return self._per_path(self.k_lo, self.k_lo + len(levels) - 1,
                              per_subtree)


def _require_finite(*arrays):
    """Overflowed iterates are a solver failure, not a norm to report."""
    if not all(np.all(np.isfinite(a)) for a in arrays):
        raise NumericError("the solution is not finite (overflow in the "
                           "backward induction)")


def _sample_norms(problem, p, y, z, v, sweep=None, tree=None, k_lo=0):
    """(S^p, M^p, L^p) norms of one (Y, Z, V) triple.

    The triple is given as path arrays (n, K[, d|m]) of a batch, or as level
    lists from depth k_lo of a tree: exact via the leaf sweep on an explicit
    tree, else the exact marginal estimators of the implicit lattice.
    """
    dt, intensities = problem.grid.dt, problem.marks.intensities

    def z_sq(arr):
        return np.einsum("njd,njd->n", arr, arr) * dt

    def v_p(arr):
        return np.einsum("njm,m->n", arr, intensities)

    if isinstance(y, np.ndarray):
        _require_finite(y, z, v)
        w = np.full(y.shape[0], 1.0 / y.shape[0])
        sp = sp_from_sup(np.max(np.abs(y), axis=1), w, p)
        mp = mp_from_sq(z_sq(z), w, p)
        lp = float(np.mean(v_p(np.abs(v) ** p)) * dt) ** (1 / p)
        return sp, mp, lp
    _require_finite(*y, *z, *v)
    if sweep is not None:
        w = sweep.weights
        sp = sp_from_sup(
            sweep.fold(np.maximum, [np.abs(lev) for lev in y]), w, p)
        mp = mp_from_sq(sweep.row_reduce(z, z_sq), w, p)
        lp = float(np.einsum("n,n->", w, sweep.row_reduce(
            [np.abs(lev) ** p for lev in v], v_p)) * dt) ** (1 / p)
        return sp, mp, lp
    sp = max(
        float(np.einsum("n,n->", tree.state_probs(k_lo + k),
                        np.abs(lev) ** p)) ** (1 / p)
        for k, lev in enumerate(y))
    mp = math.sqrt(sum(
        float(np.einsum("n,n->", tree.state_probs(k_lo + k),
                        np.einsum("nd,nd->n", lev, lev))) * dt
        for k, lev in enumerate(z)))
    lp = sum(
        float(np.einsum("n,n->", tree.state_probs(k_lo + k),
                        np.einsum("nm,m->n", np.abs(lev) ** p,
                                  intensities))) * dt
        for k, lev in enumerate(v)) ** (1 / p)
    return sp, mp, lp


class _DistanceMeter:
    """(S^q, M^q, L^q) distances between iterates on one representation."""

    def __init__(self, problem, q, tree=None, k_lo=0):
        self.problem = problem
        self.q = q
        self.tree = tree
        self.k_lo = k_lo
        self.sweep = (_LeafSweep(tree, k_lo)
                      if tree is not None and tree.explicit else None)

    def distance(self, a, b):
        if a.kind == "paths":
            return _sample_norms(self.problem, self.q, a.y_paths - b.y_paths,
                                 a.z_paths - b.z_paths, a.v_paths - b.v_paths)
        return _sample_norms(
            self.problem, self.q,
            [x - y for x, y in zip(a.y_levels, b.y_levels)],
            [x - y for x, y in zip(a.z_levels, b.z_levels)],
            [x - y for x, y in zip(a.v_levels, b.v_levels)],
            sweep=self.sweep, tree=self.tree, k_lo=self.k_lo)


def _constant_tree_solution(problem, tree, k_lo, k_hi, init):
    y0c, z0c, v0c = (float(x) for x in init)
    d, m = tree.d, tree.marks.m
    return Solution(
        kind="tree", grid=problem.grid, fingerprint=problem.fingerprint(),
        y0=y0c, tree=tree,
        y_levels=[np.full(tree.n_states(k), y0c) for k in range(k_lo, k_hi + 1)],
        z_levels=[np.full((tree.n_states(k), d), z0c) for k in range(k_lo, k_hi)],
        v_levels=[np.full((tree.n_states(k), m), v0c) for k in range(k_lo, k_hi)])


def _constant_path_solution(problem, batch, k_lo, k_hi, init):
    y0c, z0c, v0c = (float(x) for x in init)
    n, d, m = batch.n_paths, problem.d, problem.marks.m
    steps = k_hi - k_lo
    return Solution(
        kind="paths", grid=problem.grid, fingerprint=problem.fingerprint(),
        y0=y0c, batch=batch,
        y_paths=np.full((n, steps + 1), y0c),
        z_paths=np.full((n, steps, d), z0c),
        v_paths=np.full((n, steps, m), v0c))


# ---------------------------------------------------------------------------
# Picard iteration
# ---------------------------------------------------------------------------

def picard_solve(problem, method="tree", tree=None, batch=None, tol=1e-9,
                 max_iter=25, q=None, init=(0.0, 0.0, 0.0), basis_degree=2,
                 n_paths=10_000, seed=0, max_inner=100_000,
                 k_hi=None, k_lo=0, terminal_values=None,
                 check_assumptions=True, node_cap=None):
    """Picard iteration freezing (z, v) at the previous iterate.

    Each iteration solves the inner problem whose driver sees frozen (z, v)
    fields (so it depends on y only); (Y^0, Z^0, V^0) default to (0, 0, 0).
    Returns (Solution, PicardTrace); on non-contraction the trace carries
    diverged=True with the measured ratios and subdivision advice instead of
    raising, so callers can act on the report.
    """
    if method not in ("tree", "mc"):
        raise ValueError(f"method must be 'tree' or 'mc', got {method!r}")
    if check_assumptions:
        rep = check_lipschitz(problem.generator, problem, n_pairs=64, seed=seed)
        if not rep["passed"]:
            raise ValueError(
                "declared Lipschitz modulus violated: measured "
                f"{rep['kappa_hat']:.6g} > kappa={problem.generator.lipschitz_kappa:g} "
                f"(worst pair {rep['worst_pair']}); pass check_assumptions=False "
                "to override")
    if q is None:
        q = picard_q(problem.generator.growth_alpha)
    N = problem.grid.steps
    k_hi = N if k_hi is None else k_hi

    if terminal_values is None and k_hi != N:
        raise ValueError("sub-range solves need explicit terminal values")

    if method == "tree":
        if tree is None:
            tree = build_scenario_tree(problem.grid, problem.marks, problem.d,
                                       node_cap=node_cap)
        _check_tree_matches(problem, tree)
        if terminal_values is None:
            terminal_values = problem.terminal(_tree_context(problem, tree, k_hi))
        meter = _DistanceMeter(problem, q, tree=tree, k_lo=k_lo)
        prev = _constant_tree_solution(problem, tree, k_lo, k_hi, init)

        def sweep(frozen):
            y, z, v = _tree_backward(problem, tree, k_hi, k_lo, terminal_values,
                                     frozen=frozen, max_inner=max_inner)
            return Solution(kind="tree", grid=problem.grid,
                            fingerprint=problem.fingerprint(),
                            y0=float(y[0][0]), tree=tree,
                            y_levels=y, z_levels=z, v_levels=v)

        def frozen_of(sol):
            return (sol.z_levels, sol.v_levels)
    else:
        if batch is None:
            batch = simulate_paths(problem.grid, problem.marks, problem.d,
                                   n_paths, seed)
        state_cache = batch.state_paths()
        basis_cache = {}
        if terminal_values is None:
            bvals, counts = state_cache
            ctx_T = problem.context(problem.grid.nodes[k_hi],
                                    bvals[:, k_hi], counts[:, k_hi])
            terminal_values = problem.terminal(ctx_T)
        meter = _DistanceMeter(problem, q)
        prev = _constant_path_solution(problem, batch, k_lo, k_hi, init)

        def sweep(frozen):
            Y, Z, V = _mc_backward(problem, batch, basis_degree, k_hi, k_lo,
                                   terminal_values, frozen=frozen,
                                   max_inner=max_inner,
                                   basis_cache=basis_cache,
                                   state_cache=state_cache)
            return Solution(kind="paths", grid=problem.grid,
                            fingerprint=problem.fingerprint(),
                            y0=float(Y[0, 0]), batch=batch,
                            y_paths=Y, z_paths=Z, v_paths=V,
                            diagnostics={"basis_degree": basis_degree})

        def frozen_of(sol):
            return (sol.z_paths, sol.v_paths)

    trace = PicardTrace(q=q)
    cur = None
    for it in range(1, max_iter + 1):
        cur = sweep(frozen_of(prev))
        trace.n_iter = it
        trace.record(*meter.distance(cur, prev))
        if trace.dist[-1] <= tol:
            trace.converged = True
            break
        if len(trace.ratios) >= 3 and all(r >= 1.0 for r in trace.ratios[-3:]):
            trace.diverged = True
            sub_T = (k_hi - k_lo) * problem.grid.dt
            trace.message = (
                "Picard iteration is not contracting: measured ratios "
                f"{[round(r, 4) for r in trace.ratios]} on interval length "
                f"{sub_T:g}; subdivide the horizon (subdivide_horizon + "
                "chained_solve) and retry")
            break
        prev = cur
    else:
        trace.message = (f"tolerance {tol:g} not reached in {max_iter} "
                         "iterations")
    cur.diagnostics["picard"] = trace.to_json_dict()
    return cur, trace


# ---------------------------------------------------------------------------
# horizon subdivision
# ---------------------------------------------------------------------------

def subdivide_horizon(T, kappa, q, c_emp, safety=0.5):
    """Smallest uniform split K with kappa*c_emp*(T/K)^(1-q/2) <= safety.

    The contraction constant has no usable closed form; c_emp is either
    user-supplied or calibrated from a pilot run's measured ratio via
    c_emp = r / (kappa * T^(1-q/2)).
    """
    if not 1.0 < q < 2.0:
        raise ValueError(f"q must lie in (1,2), got {q}")
    if c_emp <= 0:
        raise ValueError("c_emp must be positive")
    if not 0.0 < safety < 1.0:
        raise ValueError("safety must lie in (0,1)")
    expo = 1.0 - q / 2.0
    k = 1
    if kappa * c_emp * T ** expo > safety:
        k = max(1, math.ceil(T * (kappa * c_emp / safety) ** (1.0 / expo) - 1e-12))
        while kappa * c_emp * (T / k) ** expo > safety:
            k += 1
    breakpoints = np.linspace(0.0, T, k + 1)
    breakpoints.setflags(write=False)
    return SubdivisionPlan(breakpoints, q, kappa, c_emp, safety,
                           kappa * c_emp * (T / k) ** expo)


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
    picard_kwargs.setdefault("check_assumptions", False)

    if method == "tree" and tree is None:
        tree = build_scenario_tree(problem.grid, problem.marks, problem.d,
                                   node_cap=picard_kwargs.pop("node_cap", None))
    elif method == "mc" and batch is None:
        batch = simulate_paths(problem.grid, problem.marks, problem.d,
                               picard_kwargs.get("n_paths", 10_000),
                               picard_kwargs.get("seed", 0))
    picard_kwargs.pop("node_cap", None)

    terminal_values = None
    traces = []
    pieces = []
    for i in range(K - 1, -1, -1):
        k_lo, k_hi = i * step, (i + 1) * step
        try:
            sol_i, tr_i = picard_solve(problem, method, tree=tree, batch=batch,
                                       k_hi=k_hi, k_lo=k_lo,
                                       terminal_values=terminal_values,
                                       **picard_kwargs)
        except Exception as e:
            e.args = ((f"interval {i} [{plan.breakpoints[i]:g}, "
                       f"{plan.breakpoints[i + 1]:g}]: {e}"),)
            raise
        traces.append(tr_i)
        pieces.append((k_lo, k_hi, sol_i))
        terminal_values = (sol_i.y_levels[0] if method == "tree"
                           else sol_i.y_paths[:, 0])

    # assemble ascending; interval boundaries agree by construction
    pieces.sort(key=lambda p: p[0])
    if method == "tree":
        y_levels, z_levels, v_levels = [], [], []
        for k_lo, k_hi, sol_i in pieces:
            y_levels.extend(sol_i.y_levels[:-1])
            z_levels.extend(sol_i.z_levels)
            v_levels.extend(sol_i.v_levels)
        y_levels.append(pieces[-1][2].y_levels[-1])
        out = Solution(kind="tree", grid=problem.grid,
                       fingerprint=problem.fingerprint(),
                       y0=float(y_levels[0][0]), tree=tree,
                       y_levels=y_levels, z_levels=z_levels, v_levels=v_levels)
    else:
        Y = np.concatenate([s.y_paths[:, :-1] for _, _, s in pieces]
                           + [pieces[-1][2].y_paths[:, -1:]], axis=1)
        Z = np.concatenate([s.z_paths for _, _, s in pieces], axis=1)
        V = np.concatenate([s.v_paths for _, _, s in pieces], axis=1)
        out = Solution(kind="paths", grid=problem.grid,
                       fingerprint=problem.fingerprint(),
                       y0=float(Y[0, 0]), batch=batch,
                       y_paths=Y, z_paths=Z, v_paths=V)
    out.diagnostics["subdivision_plan"] = plan.to_json_dict()
    out.diagnostics["intervals_converged"] = [t.converged for t in traces]
    return out, traces


# ---------------------------------------------------------------------------
# truncation ladder
# ---------------------------------------------------------------------------

def _class_d_distance(sol_a, sol_b, tree=None):
    """Class-D estimator of the distance between two Y samples."""
    grid = sol_a.grid
    if sol_a.kind == "paths":
        diff = sol_a.y_paths - sol_b.y_paths
        sample = ProcessSample(diff, grid)
        return class_d_norm(sample, StoppingFamily.default_for(sample))
    ydiff = [x - y for x, y in zip(sol_a.y_levels, sol_b.y_levels)]
    if tree is not None and tree.explicit:
        _require_finite(*ydiff)
        sweep = _LeafSweep(tree)
        abs_levels = [np.abs(lev) for lev in ydiff]
        last = len(abs_levels) - 1
        family = StoppingFamily.for_terminal(
            grid, sweep.at_depth(abs_levels[last], last))
        best = 0.0
        for rule in family.rules:
            stopped = (sweep.at_depth(abs_levels[rule.node], rule.node)
                       if rule.kind == "time"
                       else sweep.first_hit(abs_levels, rule.level))
            best = max(best, float(np.einsum("n,n->", sweep.weights, stopped)))
        return best
    # implicit lattice: deterministic-time rules only (exact)
    return max(float(np.einsum("n,n->", tree.state_probs(k), np.abs(lev)))
               for k, lev in enumerate(ydiff))


def _ladder_tail_bound(problem, n, tree=None, batch=None, state_cache=None):
    """E[|xi| 1{|xi|>n} + int |f(s,0,0,0)| 1{|f(s,0,0,0)|>n} ds] and its SE."""
    N = problem.grid.steps
    dt = problem.grid.dt
    if tree is not None:
        ctx_T = _tree_context(problem, tree, N)
        xi = problem.terminal(ctx_T)
        total = float(np.einsum("n,n->", tree.state_probs(N),
                                np.abs(xi) * (np.abs(xi) > n)))
        for k in range(N):
            f0 = problem.generator.zero_section(_tree_context(problem, tree, k))
            total += float(np.einsum("n,n->", tree.state_probs(k),
                                     np.abs(f0) * (np.abs(f0) > n))) * dt
        return total, 0.0
    bvals, counts = state_cache if state_cache is not None else batch.state_paths()
    ctx_T = problem.context(problem.grid.horizon, bvals[:, -1], counts[:, -1])
    xi = problem.terminal(ctx_T)
    per_path = np.abs(xi) * (np.abs(xi) > n)
    for k in range(N):
        ctx_k = problem.context(problem.grid.nodes[k], bvals[:, k], counts[:, k])
        f0 = problem.generator.zero_section(ctx_k)
        per_path = per_path + np.abs(f0) * (np.abs(f0) > n) * dt
    return (float(per_path.mean()),
            float(per_path.std(ddof=1) / math.sqrt(per_path.size)))


def truncation_ladder_solve(problem, n_list, method="tree", tree=None,
                            batch=None, tol=1e-3, **picard_kwargs):
    """Solve the ladder of clamped problems and check the class-D Cauchy bound.

    For each pair (n_lo, n_hi) the measured class-D distance between the two
    solutions is reported against the clamp-tail bound at n_lo. Ladder-Cauchy
    is declared when the last consecutive pair has both below tol. The final
    Solution is the largest-n solve.
    """
    n_list = [float(n) for n in n_list]
    if any(b <= a for a, b in zip(n_list, n_list[1:])) or any(
            n <= 0 for n in n_list):
        raise ValueError("n_list must be strictly increasing and positive")
    picard_kwargs.setdefault("check_assumptions", False)
    state_cache = None
    if method == "tree" and tree is None:
        tree = build_scenario_tree(problem.grid, problem.marks, problem.d,
                                   node_cap=picard_kwargs.pop("node_cap", None))
    elif method == "mc" and batch is None:
        batch = simulate_paths(problem.grid, problem.marks, problem.d,
                               picard_kwargs.get("n_paths", 10_000),
                               picard_kwargs.get("seed", 0))
    picard_kwargs.pop("node_cap", None)
    if batch is not None:
        state_cache = batch.state_paths()

    levels, solutions = [], []
    for n in n_list:
        truncated = truncate_problem(problem, n)
        sol, tr = picard_solve(truncated, method, tree=tree, batch=batch,
                               **picard_kwargs)
        levels.append({"n": n, "y0": sol.y0, "converged": tr.converged})
        solutions.append(sol)

    pairs = []
    for i in range(len(n_list)):
        for j in range(i + 1, len(n_list)):
            measured = _class_d_distance(solutions[j], solutions[i], tree=tree)
            bound, se = _ladder_tail_bound(problem, n_list[i], tree=tree,
                                           batch=batch, state_cache=state_cache)
            pairs.append({"n_lo": n_list[i], "n_hi": n_list[j],
                          "measured_d_norm": measured, "bound": bound,
                          "bound_se": se,
                          "within_bound": measured <= bound + 3 * se})
    last = [p for p in pairs
            if (p["n_lo"], p["n_hi"]) == (n_list[-2], n_list[-1])]
    cauchy = bool(last and last[0]["measured_d_norm"] <= tol
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
    tree = solution.tree
    N, b = tree.grid.steps, tree.branching
    dt = tree.grid.dt
    sqrt_dt = math.sqrt(dt)
    # per-mark one-step probabilities implied by the branch table (the sign
    # combinations of a jump branch already sum to (lambda_i/Lambda)(1-e^-x))
    p_mark = np.array([tree.branch_probs[tree.branch_jump == i].sum()
                       for i in range(tree.marks.m)])
    j_branch = np.zeros((b, tree.marks.m))
    has = tree.branch_jump >= 0
    j_branch[has, tree.branch_jump[has]] = 1.0
    worst = 0.0
    for k in range(N):
        n_k = tree.n_states(k)
        y_k = np.repeat(solution.y_levels[k], b)
        y_k1 = solution.y_levels[k + 1][tree.children[k]].ravel()
        z_k = np.repeat(solution.z_levels[k], b, axis=0)
        v_k = np.repeat(solution.v_levels[k], b, axis=0)
        db = np.tile(tree.sign_vectors, (n_k, 1)) * sqrt_dt
        j_ind = np.tile(j_branch, (n_k, 1))
        ctx = _tree_context(problem, tree, k)
        f_k = np.repeat(problem.generator(ctx, solution.y_levels[k],
                                          solution.z_levels[k],
                                          solution.v_levels[k]), b)
        resid = (y_k1 - y_k + f_k * dt
                 - np.einsum("nd,nd->n", z_k, db)
                 - np.einsum("nm,nm->n", v_k, j_ind - p_mark))
        worst = max(worst, float(np.max(np.abs(resid))))
    return worst


def solution_norms(solution, problem, p=None):
    """S^p / M^p / L^p norms of a Solution, with the estimator tag."""
    p = problem.p if p is None else p
    if solution.kind == "paths":
        sp, mp, lp = _sample_norms(problem, p, solution.y_paths,
                                   solution.z_paths, solution.v_paths)
        return {"sp": sp, "mp": mp, "lp": lp, "p": p, "estimator": "mc",
                "n_paths": solution.y_paths.shape[0]}
    tree = solution.tree
    sweep = _LeafSweep(tree) if tree.explicit else None
    sp, mp, lp = _sample_norms(problem, p, solution.y_levels,
                               solution.z_levels, solution.v_levels,
                               sweep=sweep, tree=tree)
    if sweep is not None:
        return {"sp": sp, "mp": mp, "lp": lp, "p": p, "estimator": "tree",
                "n_paths": int(sweep.weights.size)}
    return {"sp": sp, "mp": mp, "lp": lp, "p": p,
            "estimator": "tree-marginal", "n_paths": None}
