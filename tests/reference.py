"""Path tables the tests compare the package against, the norms computed
from them, and closed-form continuous-time solutions of the affine driver.

``state_paths`` and ``enumerate_paths`` build, for a path batch and an
explicit scenario tree, the full path-major tables that the package itself
never holds: its path batch keeps the states step-major, and the leaf sweep
reads the tree's walk set one subtree at a time. ``poisson_measure`` is the
jump simulation that draws every path's gap in every round.
"""

import math

import numpy as np

from jumpbsde import rng
from jumpbsde.norms import (ProcessSample, mp_from_sq, mp_norm, sp_from_sup,
                            sp_norm)


def state_paths(batch):
    """Cumulative state of a path batch at every grid node.

    Returns (brownian_values, counts): Brownian value (n, N+1, d) and
    per-mark jump counts (n, N+1, m). A jump in step j is counted from
    node j+1 on.
    """
    n, N = batch.n_paths, batch.grid.steps
    if batch.has_brownian:
        bvals = np.zeros((n, N + 1, batch.d))
        np.cumsum(batch.brownian_increments, axis=1, out=bvals[:, 1:, :])
    else:
        bvals = np.zeros((n, N + 1, batch.d))
    m = batch.marks.m if batch.marks is not None else 0
    counts = np.zeros((n, N + 1, m))
    if batch.has_jumps and batch.jump_times.size:
        per_path = np.diff(batch.jump_offsets)
        path_of = np.repeat(np.arange(n), per_path)
        np.add.at(counts, (path_of, batch.jump_steps + 1, batch.jump_mark_idx),
                  1.0)
        np.cumsum(counts, axis=1, out=counts)
    return bvals, counts


def poisson_measure(grid, marks, n_paths, seed, path_start=0):
    """(jump_times, jump_mark_idx, jump_offsets, jump_steps) of
    ``simulate_poisson_measure``, drawing gap g of every path in round g
    until no path has g events in (0, T]."""
    lam_total, T = marks.total_intensity, grid.horizon
    paths = np.arange(path_start, path_start + n_paths, dtype=np.uint64)
    rounds, acc, g = [], np.zeros(n_paths), 0
    while True:
        u = rng.uniform(seed, rng.STREAM_JUMP_GAP, paths, np.uint64(g))
        acc = acc + (-np.log(u) / lam_total)
        alive = acc <= T
        if not alive.any():
            break
        rounds.append((np.where(alive)[0], acc[alive], g))
        g += 1
    counts = np.zeros(n_paths, dtype=np.int64)
    for idx, _, _ in rounds:
        counts[idx] += 1
    offsets = np.zeros(n_paths + 1, dtype=np.int64)
    np.cumsum(counts, out=offsets[1:])
    times = np.empty(offsets[-1])
    mark_idx = np.empty(offsets[-1], dtype=np.int64)
    cursor = offsets[:-1].copy()
    cum_prob = np.cumsum(marks.intensities) / lam_total
    for idx, t_vals, g_idx in rounds:
        u2 = rng.uniform(seed, rng.STREAM_JUMP_MARK, paths[idx],
                         np.uint64(g_idx))
        times[cursor[idx]] = t_vals
        mark_idx[cursor[idx]] = np.searchsorted(cum_prob, u2, side="left")
        cursor[idx] += 1
    return times, mark_idx, offsets, grid.step_of(times).astype(np.int64)


def enumerate_paths(tree):
    """All branch-index histories of an explicit tree: (ids, state_idx,
    probs).

    state_idx has shape (n_hist, N+1) indexing each depth's level arrays;
    probs are the exact per-history probabilities.
    """
    tree._require_explicit("path enumeration")
    N, b = tree.grid.steps, tree.branching
    n_hist = tree.n_leaves
    ids = np.arange(n_hist, dtype=np.int64)
    state_idx = np.zeros((n_hist, N + 1), dtype=np.int64)
    probs = np.ones(n_hist)
    for k in range(N):
        digit = (ids // (b ** (N - 1 - k))) % b
        state_idx[:, k + 1] = tree.child_table(k)[state_idx[:, k], digit]
        probs *= tree.branch_probs[digit]
    return ids, state_idx, probs


def path_table(levels, idx, k_lo=0):
    """(n, K[, width]) values of per-depth levels along the paths whose
    lattice states at depths k_lo, k_lo + 1, ... are idx's columns."""
    return np.stack([lev[idx[:, k_lo + k]] for k, lev in enumerate(levels)],
                    axis=1)


def iterate_fields(rep, iterate, k_lo):
    """Copies of the (Y, Z, V) levels of a Picard iterate ``(y, entries)``
    over depths from k_lo, its (Z, V) read through the representation
    (``rep.fields``) as a sweep leaves them."""
    y, entries = iterate
    z, v = rep.fields(y, entries, k_lo)
    return tuple([lev.copy() for lev in f] for f in (y, z, v))


def lazy_diff(a, b):
    """Per-depth (Y, Z, V) differences of two solutions, read lazily, as the
    Picard meter passes them."""
    return [map(np.subtract, getattr(a, f), getattr(b, f)) for f in "yzv"]


def tree_norms(problem, tree, q, y, z, v, k_lo=0):
    """(S^q, M^q, L^q) of per-depth levels from depth k_lo on, from the
    path tables of an explicit tree and its leaf probabilities."""
    grid, lam = problem.grid, problem.marks.intensities
    _, idx, w = enumerate_paths(tree)
    y, z, v = (path_table(f, idx, k_lo) for f in (y, z, v))
    v_p = np.einsum("njm,m->n", np.abs(v) ** q, lam)
    return (sp_norm(ProcessSample(y, grid, w), q),
            mp_norm(ProcessSample(z, grid, w), q),
            float(np.einsum("n,n->", w, v_p) * grid.dt) ** (1 / q))


def path_functionals(problem, p, y, z, v, f0, w):
    """``estimates.solution_functionals`` from (n, K[, width]) path arrays,
    the per-path sums ``f0`` of |f(t_k, ., 0, 0, 0)| and the weights."""
    dt = problem.grid.dt
    return {
        "weights": w,
        "sup_abs_y": np.max(np.abs(y), axis=1),
        "int_z_sq": np.einsum("njd,njd->n", z, z) * dt,
        "int_v_p": np.einsum("njm,m->n", np.abs(v) ** p,
                             problem.marks.intensities) * dt,
        "int_f0_abs": f0 * dt,
        "xi_abs": np.abs(y[:, -1]),
    }


def batch_norms(problem, q, y, z, v):
    """(S^q, M^q, L^q) of (n, K[, width]) path arrays, each path of weight
    1/n."""
    n, dt = y.shape[0], problem.grid.dt
    w = np.full(n, 1.0 / n)
    v_p = np.einsum("njm,m->n", np.abs(v) ** q, problem.marks.intensities)
    return (sp_from_sup(np.max(np.abs(y), axis=1), w, q),
            mp_from_sq(np.einsum("njd,njd->n", z, z) * dt, w, q),
            float(np.mean(v_p) * dt) ** (1 / q))


# ---------------------------------------------------------------------------
# closed forms of the affine driver
# ---------------------------------------------------------------------------
#
# For f = const + a y + b.z + sum_i c_i lambda_i v_i with c_i > -1, Y_t is a
# conditional expectation under Q, where B has drift b and mark i has
# intensity (1 + c_i) lambda_i (Quenez & Sulem 2013). The functions take the
# state (t, B_t, N_t), with B_t (d,) and N_t (m,), and the data b (d,),
# c and lam (m,), and return (Y_t, Z_t (d,), V_t (m,)).

def affine_state_linear(t, b_t, n_t, T, a, b, c, lam, w, u, s=0.0,
                        const=0.0):
    """The solution for xi = w.B_T + u.(N_T - lambda T) + s (a != 0)."""
    g = math.exp(a * (T - t))
    y = g * (w @ (b_t + b * (T - t))
             + u @ (n_t - lam * t + c * lam * (T - t)) + s)
    return y + const * (g - 1.0) / a, g * w, g * u


def affine_exp_brownian(t, b_t, n_t, T, a, b, c, lam, w):
    """The solution for const = 0 and xi = exp(w.B_T): it does not depend
    on the jumps, so V = 0."""
    tau = T - t
    y = math.exp(a * tau) * math.exp(w @ b_t + (w @ b) * tau
                                     + (w @ w) * tau / 2.0)
    return y, w * y, np.zeros_like(lam)
