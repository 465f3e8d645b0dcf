"""Driving noise: Brownian/Poisson path batches and the exact scenario tree.

Path simulation is counter-based (see rng): the increment of path k at step j
is a pure function of (seed, k, j), so batches are reproducible independent of
batch size, chunking, or thread count. The scenario tree discretizes the same
two noises exactly: per step, 2^d Brownian sign branches of probability
(1/2)^d each (increment +-sqrt(dt) per dimension) times (1+m) jump branches
with p_none = exp(-Lambda dt) and p_i = (lambda_i/Lambda)(1 - exp(-Lambda dt)).
Lumping multi-jump mass into the single-jump branch gives an O(dt^2)-per-step
bias, matching the first-order scheme it serves as an oracle for.

Containers are immutable after construction but for two caches, a tree's
walk set and the last block read of a ``_Checkpoints`` sequence: both hold
read-only arrays never written once built, and a reader returns what it
found or built, so the containers are safe to share across threads.
"""

import functools
import itertools
import math
from dataclasses import dataclass, replace, field

import numpy as np

from . import rng
from .errors import ResourceLimitError

__all__ = [
    "TimeGrid",
    "MarkSpace",
    "PathBatch",
    "ScenarioTree",
    "make_time_grid",
    "make_mark_space",
    "simulate_brownian",
    "simulate_poisson_measure",
    "simulate_paths",
    "merge_batches",
    "build_scenario_tree",
]

DEFAULT_NODE_CAP = 10_000_000
# the stride of the lattice's state probabilities (``_Checkpoints``)
CHECKPOINT_STRIDE = 12
# the most jump events a path batch may expect, Lambda * T * n_paths
EVENT_CAP = 10_000_000
# the most Brownian increments a path batch may hold, n_paths * N * d (8
# bytes each)
VARIATE_CAP = 100_000_000
# the most states a lattice may have over its depths (Y takes 8 bytes each)
STATE_CAP = 100_000_000


# ---------------------------------------------------------------------------
# grids and marks
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TimeGrid:
    """Uniform grid 0 = t_0 < ... < t_N = T."""

    horizon: float
    steps: int
    nodes: np.ndarray = field(repr=False)

    @property
    def dt(self):
        return self.horizon / self.steps

    def step_of(self, times):
        """Index j of the step (t_j, t_{j+1}] containing each time, clipped
        to the grid: t / dt rounded down, then moved by one node where a
        node comparison says so (the rounding is off by one at most)."""
        times = np.asarray(times, dtype=float)
        j = np.clip((times / self.dt).astype(np.int64), 0, self.steps - 1)
        j -= times <= self.nodes[j]
        j += times > self.nodes[j + 1]
        return np.clip(j, 0, self.steps - 1, out=j)

    def to_json_dict(self):
        return {"horizon": self.horizon, "steps": self.steps}


def make_time_grid(T, N):
    if not (np.isfinite(T) and T > 0):
        raise ValueError(f"horizon T must be a positive real, got {T!r}")
    if not (isinstance(N, (int, np.integer)) and N >= 1):
        raise ValueError(f"steps N must be a positive integer, got {N!r}")
    nodes = np.linspace(0.0, float(T), int(N) + 1)
    if not (np.all(np.diff(nodes) > 0) and nodes[-1] == T):
        raise ValueError(f"degenerate grid for T={T}, N={N}")
    nodes.setflags(write=False)
    return TimeGrid(float(T), int(N), nodes)


@dataclass(frozen=True)
class MarkSpace:
    """Finite set of jump marks e_1..e_m with per-mark intensities."""

    marks: np.ndarray        # (m, mark_dim), no zero vector
    intensities: np.ndarray  # (m,), all > 0

    @property
    def m(self):
        return self.marks.shape[0]

    @property
    def total_intensity(self):
        return float(np.sum(self.intensities))

    @property
    def mark_norms(self):
        return np.sqrt(np.sum(self.marks ** 2, axis=1))

    def section_norm(self, v, p):
        """Sectional norm (sum_i |v_i|^p lambda_i)^(1/p) along the last axis."""
        v = np.asarray(v, dtype=float)
        return np.einsum("...m,m->...", np.abs(v) ** p, self.intensities) ** (1.0 / p)

    def to_json_dict(self):
        return {
            "marks": self.marks.tolist(),
            "intensities": self.intensities.tolist(),
        }


def make_mark_space(marks, intensities):
    marks = np.atleast_2d(np.asarray(marks, dtype=float))
    if marks.ndim != 2 or marks.shape[0] == 0:
        raise ValueError("mark list must be non-empty")
    intensities = np.asarray(intensities, dtype=float).reshape(-1)
    if intensities.shape[0] != marks.shape[0]:
        raise ValueError(
            f"{marks.shape[0]} marks but {intensities.shape[0]} intensities"
        )
    if not np.all(np.isfinite(marks)):
        raise ValueError("marks must be finite")
    if np.any(np.sqrt(np.sum(marks ** 2, axis=1)) == 0.0):
        raise ValueError("the zero vector is not an admissible mark")
    if not np.all(np.isfinite(intensities)) or np.any(intensities <= 0):
        raise ValueError("intensities must be positive reals")
    marks.setflags(write=False)
    intensities.setflags(write=False)
    return MarkSpace(marks, intensities)


# ---------------------------------------------------------------------------
# path batches
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PathBatch:
    """Sampled Brownian increments and marked jump events.

    The jump part is stored CSR-style: events of path k are
    (jump_times[o_k:o_{k+1}], jump_mark_idx[o_k:o_{k+1}]) with
    o = jump_offsets, sorted by time within each path. jump_steps caches the
    step index of each event (a jump at tau in (t_j, t_{j+1}] belongs to
    step j, the left-endpoint/predictable convention).
    """

    grid: TimeGrid
    d: int
    n_paths: int
    seed: int
    path_start: int = 0
    brownian_increments: np.ndarray | None = None      # (n, N, d)
    marks: MarkSpace | None = None
    jump_times: np.ndarray | None = None               # (total_jumps,)
    jump_mark_idx: np.ndarray | None = None            # (total_jumps,)
    jump_offsets: np.ndarray | None = None             # (n+1,)
    jump_steps: np.ndarray | None = None               # (total_jumps,)

    @property
    def has_brownian(self):
        return self.brownian_increments is not None

    @property
    def has_jumps(self):
        return self.jump_times is not None

    def jump_events(self, k):
        """Events of path k as a list of (time, mark index), sorted by time."""
        if not self.has_jumps:
            raise ValueError("batch carries no jump part")
        a, b = self.jump_offsets[k], self.jump_offsets[k + 1]
        return list(zip(self.jump_times[a:b].tolist(),
                        self.jump_mark_idx[a:b].tolist()))

    @property
    def jump_paths(self):
        """The path of each event (read-only), derived from jump_offsets."""
        if not self.has_jumps:
            raise ValueError("batch carries no jump part")
        out = np.repeat(np.arange(self.n_paths), np.diff(self.jump_offsets))
        out.setflags(write=False)
        return out

    def jump_counts(self):
        """Total jumps per path, and per (path, mark)."""
        path_of = self.jump_paths
        per_mark = np.zeros((self.n_paths, self.marks.m), dtype=np.int64)
        np.add.at(per_mark, (path_of, self.jump_mark_idx), 1)
        return np.diff(self.jump_offsets), per_mark


def _freeze_jumps(grid, times, mark_idx, offsets):
    steps = grid.step_of(times).astype(np.int64)
    for a in (times, mark_idx, offsets, steps):
        a.setflags(write=False)
    return {"jump_times": times, "jump_mark_idx": mark_idx,
            "jump_offsets": offsets, "jump_steps": steps}


def _check_sim_args(grid, n_paths, seed):
    if not isinstance(grid, TimeGrid):
        raise ValueError("grid must be a TimeGrid")
    if not (isinstance(n_paths, (int, np.integer)) and n_paths >= 1):
        raise ValueError(f"n_paths must be a positive integer, got {n_paths!r}")
    if not isinstance(seed, (int, np.integer)):
        raise ValueError(f"seed must be an integer, got {seed!r}")


def _check_brownian_args(grid, d, n_paths, seed):
    _check_sim_args(grid, n_paths, seed)
    if not (isinstance(d, (int, np.integer)) and d >= 1):
        raise ValueError(f"dimension d must be a positive integer, got {d!r}")
    variates = int(n_paths) * grid.steps * int(d)
    if variates > VARIATE_CAP:
        raise ResourceLimitError(
            "n_paths", f"{n_paths} paths of {grid.steps} steps in dimension "
                       f"{d} need n_paths*grid_steps*dim = {variates:g} "
                       f"Brownian increments, above the variate cap "
                       f"{VARIATE_CAP}")


def simulate_brownian(grid, d, n_paths, seed, path_start=0):
    """Brownian part: increments Normal(0, dt I_d) per (path, step).

    The increment at (path k, step j) depends only on (seed, k, j, dim), so
    generating [0, n) in one call or as disjoint path ranges (via path_start)
    yields bit-identical values. A batch of more than VARIATE_CAP increments
    raises ResourceLimitError before any draw.
    """
    _check_brownian_args(grid, d, n_paths, seed)
    N = grid.steps
    paths = (np.arange(path_start, path_start + n_paths, dtype=np.uint64)
             .reshape(-1, 1, 1))
    slots = (np.arange(N, dtype=np.uint64).reshape(1, -1, 1) * np.uint64(d)
             + np.arange(d, dtype=np.uint64).reshape(1, 1, -1))
    inc = rng.normal(seed, rng.STREAM_BROWNIAN, paths, slots,
                     scale=math.sqrt(grid.dt))
    inc.setflags(write=False)
    return PathBatch(grid=grid, d=int(d), n_paths=int(n_paths), seed=int(seed),
                     path_start=int(path_start), brownian_increments=inc)


def simulate_poisson_measure(grid, marks, n_paths, seed, path_start=0):
    """Jump part: per path a Poisson process of rate Lambda on (0, T], each
    event carrying mark e_i with probability lambda_i / Lambda.

    Gap g of path k is keyed by (seed, k, g), drawn only while its first g
    events lie in (0, T]; the mark of the event it ends by (seed, k, g) on a
    separate stream, in the same round. One stable sort over the rounds
    places the events path-major. Reproducible independent of n_paths. A
    batch expecting more than EVENT_CAP events raises ResourceLimitError
    before any draw.
    """
    _check_sim_args(grid, n_paths, seed)
    if not isinstance(marks, MarkSpace):
        raise ValueError("marks must be a MarkSpace (non-empty mark list)")
    lam_total = marks.total_intensity
    T = grid.horizon
    if lam_total * T * n_paths > EVENT_CAP:
        raise ResourceLimitError(
            "n_paths", f"{n_paths} paths expect Lambda*T*n_paths = "
                       f"{lam_total * T * n_paths:g} jump events, above the "
                       f"event cap {EVENT_CAP}")
    paths = np.arange(path_start, path_start + n_paths, dtype=np.uint64)
    cum_prob = np.cumsum(marks.intensities) / lam_total
    # per round g: the paths whose gap g ends in (0, T], with that event's
    # time and mark; the last round is empty
    rounds, live, acc, g = [], np.arange(n_paths), np.zeros(n_paths), 0
    while live.size:
        if g > 64 + int(8 * lam_total * T):  # astronomically unlikely
            raise RuntimeError("jump count bound exceeded; check intensities")
        u = rng.uniform(seed, rng.STREAM_JUMP_GAP, paths[live], np.uint64(g))
        acc = acc + (-np.log(u) / lam_total)
        alive = acc <= T
        live, acc = live[alive], acc[alive]
        u = rng.uniform(seed, rng.STREAM_JUMP_MARK, paths[live], np.uint64(g))
        rounds.append((live, acc, np.searchsorted(cum_prob, u, side="left")))
        g += 1
    # rounds are in time order within a path, so a stable sort of the
    # round-major path indices places the events path-major
    path_of, times, mark_idx = map(np.concatenate, zip(*rounds))
    del rounds      # copied out: freed before the sort
    order = np.argsort(path_of, kind="stable")
    offsets = np.zeros(n_paths + 1, dtype=np.int64)
    np.cumsum(np.bincount(path_of, minlength=n_paths), out=offsets[1:])
    return PathBatch(grid=grid, d=0, n_paths=int(n_paths), seed=int(seed),
                     path_start=int(path_start), marks=marks,
                     **_freeze_jumps(grid, times[order], mark_idx[order],
                                     offsets))


def merge_batches(brownian_part, jump_part):
    """Combine a Brownian-part and a jump-part batch over the same grid."""
    if brownian_part.grid.to_json_dict() != jump_part.grid.to_json_dict():
        raise ValueError("batches were simulated on different grids")
    if (brownian_part.n_paths, brownian_part.path_start) != (
            jump_part.n_paths, jump_part.path_start):
        raise ValueError("batches cover different path ranges")
    return replace(brownian_part, marks=jump_part.marks,
                   jump_times=jump_part.jump_times,
                   jump_mark_idx=jump_part.jump_mark_idx,
                   jump_offsets=jump_part.jump_offsets,
                   jump_steps=jump_part.jump_steps)


def simulate_paths(grid, marks, d, n_paths, seed, path_start=0):
    """Both noises in one batch (independent streams under the same seed);
    the jump part first. The variate cap and the event cap are both checked
    before any draw."""
    _check_brownian_args(grid, d, n_paths, seed)
    jumps = simulate_poisson_measure(grid, marks, n_paths, seed, path_start)
    return merge_batches(simulate_brownian(grid, d, n_paths, seed, path_start),
                         jumps)


# ---------------------------------------------------------------------------
# checkpointed sequences
# ---------------------------------------------------------------------------

class _Checkpoints:
    """Arrays x_0..x_n, where ``run(j, x_j, stop)`` yields x_{j+1}..x_stop,
    kept at x_0 and every ``stride``-th value from one pass. ``at(k)``
    rebuilds the block from the checkpoint at or below k to just before the
    next one and keeps that block only, dropping the old one first, so that
    reads in either order rebuild each block once. Values are read-only and
    ``at`` returns from the block it found or built: a value keeps its bits."""

    def __init__(self, first, run, n, stride):
        self.run, self.n, self.stride = run, n, stride
        self.points = [first] + [x for j, x in enumerate(run(0, first, n), 1)
                                 if j % stride == 0]
        self.block = -1, ()       # (its first index, its values)

    def at(self, k):
        if not 0 <= k <= self.n:
            raise IndexError(f"index {k} is outside [0, {self.n}]")
        start = k - k % self.stride
        block = self.block
        if block[0] != start:
            self.block = block = -1, ()
            values = [self.points[start // self.stride]]
            values += self.run(start, values[0],
                               min(start + self.stride - 1, self.n))
            for x in values:
                x.flags.writeable = False
            block = self.block = start, values
        return block[1][k - start]


# ---------------------------------------------------------------------------
# scenario tree
# ---------------------------------------------------------------------------

def _force_unit_sum(probs):
    """Nudge so that float(np.einsum('nb,b->n', ones, probs)) == 1 exactly.

    The solver's conditional expectations reduce branch values with this very
    einsum kernel; forcing the weight sum to 1 under the same reduction makes
    constants (times a power of two) reproduce bitwise through the recursion.
    The largest weight takes the correction, or the next largest where the
    sum steps over 1 (its spacing there being coarser than that weight's).
    """
    probs = probs.copy()
    ones = np.ones((1, probs.size))
    for rank in range(probs.size):
        for _ in range(10):
            s = float(np.einsum("nb,b->n", ones, probs)[0])
            if s == 1.0:
                return probs
            probs[np.argsort(-probs, kind="stable")[rank]] += 1.0 - s
    raise AssertionError("branch probabilities failed to normalize exactly")


@dataclass(frozen=True)
class _Level:
    """The reachable states at depth k of the lattice, a product grid: the
    jump-count rows j with sum(j) <= k, ordered by (j_m, ..., j_1), times
    the full up-count cube {0..k}^d, ordered by (u_d, ..., u_1). State
    index = row * (k+1)^d + cube index, the ascending order of the state
    codes (``codes``). The counts follow from the index."""

    rows: np.ndarray         # (R_k, m) jump counts, np.min_scalar_type(N)
    # (R_k, 1+m) intp: a row's row at depth k+1 after no jump, mark 1, ...,
    # mark m; None at the last depth
    next_rows: np.ndarray | None
    depth: int
    d: int
    base: int                # N + 1, the radix of the state codes

    @property
    def shape(self):
        """The grid of the states: (R_k,) + (k+1,) * d."""
        return self.rows.shape[:1] + (self.depth + 1,) * self.d

    @property
    def size(self):
        """n_k, the number of states."""
        return len(self.rows) * (self.depth + 1) ** self.d

    @property
    def cube_counts(self):
        """((k+1)^d, d) up-counts u_1..u_d of the cube's cells, in order."""
        cube = np.indices(self.shape[1:], dtype=self.rows.dtype)
        return cube[::-1].reshape(self.d, -1).T

    def per_cell(self, cells):
        """(n_k, ...) per-state values from per-cube-cell ``cells``, the same
        in every row."""
        out = np.empty((len(self.rows),) + cells.shape, dtype=cells.dtype)
        out[...] = cells
        return out.reshape((-1,) + cells.shape[1:])

    @property
    def up_counts(self):
        """(n_k, d) up-counts u_1..u_d, derived from the state index."""
        return self.per_cell(self.cube_counts)

    @property
    def jump_counts(self):
        """(n_k, m) per-mark jump counts, derived from the state index."""
        return np.repeat(self.rows, (self.depth + 1) ** self.d, axis=0)

    @property
    def codes(self):
        """State codes, derived: up-counts, then jump counts, in base N+1.
        The benchmark's traced mode counts a depth's states by their size."""
        digits = np.hstack((self.up_counts, self.jump_counts)).astype(np.int64)
        return digits @ self.base ** np.arange(digits.shape[1])


def _up_increments(sign_vectors, m):
    """Per sign vector, in branch order, its up-increments e in the cube's
    axis order (e_d, ..., e_1)."""
    return [tuple(int(s > 0) for s in signs[::-1])
            for signs in sign_vectors[::1 + m]]


def _cube_slices(up_inc, side):
    """Per sign vector, the slices of a side^d cube that shift it by the
    sign's up-increments."""
    return [tuple(slice(e, e + side) for e in inc) for inc in up_inc]


def _advance(level, probs, branch_probs, up_inc, scratch):
    """The state probabilities at depth k+1 from ``probs`` at depth k
    (``level``'s); ``scratch`` holds at least 2 n_{k+1} floats.

    Branch by branch -- jump outcome mark m, ..., mark 1, no jump, then
    signs by descending up-increments -- each state's weighted probability
    is added to its child, so each child sums its parents' weights in
    ascending parent index, the order of a bincount over the children. The
    build and every rebuild run this one recursion, so a rebuilt depth has
    the build's bits. The depth-k grid is copied into one of the next
    depth's cube size, zero-padded, so that a branch's cube shift is a flat
    offset: a run of rows adds in one contiguous stretch, a gathered row set
    row by row. The padding adds +0.0 to children that are >= +0.0, which
    leaves them as they are."""
    k, n_jump, d = level.depth, level.next_rows.shape[1], level.d
    side, n_rows = k + 2, len(level.rows)
    width = side ** d                       # a row's states at depth k+1
    pad = scratch[:n_rows * width].reshape((n_rows,) + (side,) * d)
    pad[...] = 0.0
    pad[(slice(None),) + (slice(0, k + 1),) * d] = probs.reshape(level.shape)
    pad, prod = pad.reshape(-1), scratch[n_rows * width:2 * n_rows * width]
    out = np.empty((int(level.next_rows.max()) + 1) * width)
    out[...] = 0.0
    weight = None
    for o in range(n_jump - 1, -1, -1):
        rows = level.next_rows[:, o]
        for s, inc in enumerate(up_inc):
            # the cube shift; the cube's axes are (u_d, ..., u_1)
            shift = sum(e * side ** i for i, e in enumerate(inc[::-1]))
            if branch_probs[s * n_jump + o] != weight:
                weight = branch_probs[s * n_jump + o]
                np.multiply(pad, weight, out=prod)
            if rows[-1] - rows[0] == n_rows - 1:     # ascending, so a run
                start = rows[0] * width + shift
                out[start:start + n_rows * width - shift] += (
                    prod[:n_rows * width - shift])
            else:
                out.reshape(-1, width)[rows, shift:] += (
                    prod.reshape(n_rows, width)[:, :width - shift])
    return out


class ScenarioTree:
    """Exact product tree: binomial Brownian x at-most-one-jump branching.

    A node at depth k is a length-k sequence of branch indices (Brownian sign
    vector + jump outcome per step); there are branching^k of them. Because
    problem data depend on the state (Brownian value, per-mark jump counts)
    only, conditional expectations collapse exactly onto the recombined state
    lattice, which is what backward induction uses; the walk set of all
    root-to-leaf paths (``walks``) is available when branching^N is at most
    the node cap. Immutable after construction; the walk set, derived from
    the lattice, is built on first use.

    Each depth of the lattice is a grid of jump rows times an up-count cube
    (``_Level``), so a state's children follow from its index: the child
    along branch (sign s, jump outcome o) lies in the parent row's row after
    o, at the parent's cube cell shifted by the sign's up-increments.
    ``gather_children`` reads a level at the children by one row gather per
    jump outcome and one cube slice per sign; ``child_table`` is the index
    table it implies, built on demand. The state probabilities are a
    ``_Checkpoints`` sequence over the depths, of stride CHECKPOINT_STRIDE.
    """

    def __init__(self, grid, marks, d, node_cap, sign_vectors, branch_jump,
                 branch_probs, levels, probs):
        self.grid = grid
        self.marks = marks
        self.d = d
        self.node_cap = node_cap
        self.sign_vectors = sign_vectors      # (b, d) of +-1
        self.branch_jump = branch_jump        # (b,) -1 = no jump, else mark index
        self.branch_probs = branch_probs      # (b,), exact unit sum
        self.levels = levels                  # list of _Level, length N+1
        self._probs = probs                   # _Checkpoints over the depths
        self._up_inc = _up_increments(sign_vectors, marks.m)

    @property
    def branching(self):
        return self.branch_probs.size

    @property
    def n_leaves(self):
        return self.branching ** self.grid.steps  # Python int, exact

    @property
    def explicit(self):
        """Whether full-tree node enumeration is within the cap."""
        return self.node_cap is not None and self.n_leaves <= self.node_cap

    def _level(self, depth, last):
        if not 0 <= depth <= last:
            raise IndexError(f"index {depth} is outside [0, {last}]")
        return self.levels[depth]

    def n_states(self, depth):
        return self._level(depth, self.grid.steps).size

    def brownian_values(self, depth):
        """Brownian state per lattice node at a depth: (2u - k) sqrt(dt)."""
        lev = self._level(depth, self.grid.steps)
        return lev.per_cell((2.0 * lev.cube_counts - depth)
                            * math.sqrt(self.grid.dt))

    def gather_children(self, k, values):
        """(n_k, b) C-contiguous: a level ``values`` at depth k+1 read at
        each depth-k state's children, in branch order; k in [0, N-1]."""
        lev, n_jump = self._level(k, self.grid.steps - 1), 1 + self.marks.m
        grid = values.reshape(self.levels[k + 1].shape)
        out = np.empty(lev.shape + (len(self._up_inc), n_jump),
                       dtype=values.dtype)
        cubes = _cube_slices(self._up_inc, k + 1)
        for o in range(n_jump):
            rows = grid[lev.next_rows[:, o]]
            for s, cube in enumerate(cubes):
                out[..., s, o] = rows[(slice(None),) + cube]
        return out.reshape(-1, self.branching)

    def child_table(self, k):
        """(n_k, b) intp indices into depth k+1 of each state's children."""
        self._level(k, self.grid.steps - 1)     # a bad k is named as such
        return self.gather_children(
            k, np.arange(self.n_states(k + 1), dtype=np.intp))

    def state_probs(self, depth):
        """(n_k,) read-only probabilities of the states at a depth."""
        return self._probs.at(depth)

    # -- the walk set: explicit trees only -----------------------------------

    def _require_explicit(self, what):
        if not self.explicit:
            raise ResourceLimitError(
                "node_cap",
                f"{what} requires explicit node enumeration: "
                f"{self.n_leaves} leaves exceed the node cap "
                f"({self.node_cap if self.node_cap is not None else 'disabled'})"
            )

    @functools.cached_property
    def walks(self):
        """The walk set (states, probs) of all root-to-leaf paths, built on
        first use and kept, so every reader of the tree shares one.

        ``states[k]`` ((b^k,) intp) is the lattice state at depth k of every
        length-k path prefix, in leaf-id order: leaf i's branch indices are
        the base-b digits of i, the first step's most significant, so prefix
        i's children are prefixes b i, ..., b i + b - 1, and the prefixes
        below one prefix are one slice of each deeper depth's states. They
        take under b / (b - 1) <= 4/3 times the 8 b^N bytes of one per-leaf
        float vector. ``probs`` ((b^N,)) are the exact leaf probabilities,
        the branch probabilities multiplied from the root down.
        """
        self._require_explicit("the walk set")
        return _walk_set(self)


def _walk_set(tree):
    """``ScenarioTree.walks``: each depth's prefix states are its parents'
    states read through the child table, in branch order."""
    states, probs = [np.zeros(1, dtype=np.intp)], np.ones(1)
    for k in range(tree.grid.steps):
        states.append(tree.child_table(k)[states[k]].ravel())
        probs = (probs[:, None] * tree.branch_probs).ravel()
    for arr in states + [probs]:
        arr.setflags(write=False)
    return states, probs


def build_scenario_tree(grid, marks, d, node_cap=DEFAULT_NODE_CAP):
    """Construct the scenario tree for (grid, marks, d).

    node_cap bounds the full (non-recombined) leaf count branching^N; pass
    node_cap=None to disable the cap, which also disables the walk set and
    leaves only the exact lattice recursion. A lattice of more than
    STATE_CAP states over its depths raises ResourceLimitError at
    ``grid_steps`` before anything is allocated.
    """
    if not isinstance(marks, MarkSpace):
        raise ValueError("marks must be a MarkSpace")
    if not (isinstance(d, (int, np.integer)) and d >= 1):
        raise ValueError(f"dimension d must be a positive integer, got {d!r}")
    d = int(d)
    N, m = grid.steps, marks.m
    b = (2 ** d) * (1 + m)
    if node_cap is not None and b ** N > node_cap:
        raise ResourceLimitError(
            "node_cap",
            f"scenario tree would have {b ** N} leaf nodes "
            f"({b}^{N}), exceeding the node cap {node_cap}"
        )
    if (N + 1) ** (d + m) > 2 ** 62:
        raise ResourceLimitError(
            "grid_steps",
            f"state coding overflows: (N+1)^(d+m) = {(N + 1) ** (d + m)}"
        )
    # n_k = C(k+m, m) (k+1)^d: the sum passes the cap within 700 depths
    sizes = (math.comb(k + m, m) * (k + 1) ** d for k in range(N + 1))
    if any(total > STATE_CAP for total in itertools.accumulate(sizes)):
        raise ResourceLimitError(
            "grid_steps",
            f"the lattice would have more than {STATE_CAP} states over its "
            f"{N + 1} depths, the lattice state cap")

    # branch tables: sign-major, jump outcome minor; order is part of the
    # determinism contract (reductions always run in this order)
    x = marks.total_intensity * grid.dt
    p_none = math.exp(-x)
    jump_probs = np.concatenate((
        [p_none], (marks.intensities / marks.total_intensity) * (1.0 - p_none)))
    half_d = 0.5 ** d
    sign_vectors = np.empty((b, d))
    branch_jump = np.empty(b, dtype=np.int64)
    branch_probs = np.empty(b)
    row = 0
    for s in range(2 ** d):
        signs = np.array([1.0 if (s >> i) & 1 == 0 else -1.0 for i in range(d)])
        for j in range(1 + m):
            sign_vectors[row] = signs
            branch_jump[row] = j - 1
            branch_probs[row] = half_d * jump_probs[j]
            row += 1
    branch_probs = _force_unit_sum(branch_probs)

    # recombined lattice: each depth is a grid of jump rows times the
    # up-count cube (see _Level); the next depth's rows are the distinct
    # rows one jump outcome reaches, coded in base N+1 (j_m most significant)
    base = N + 1
    count_dtype = np.min_scalar_type(N)
    place = base ** np.arange(m, dtype=np.int64)
    jump_inc = np.vstack((np.zeros((1, m), dtype=np.int64),
                          np.eye(m, dtype=np.int64)))             # (1+m, m)
    up_inc = _up_increments(sign_vectors, m)
    rows = np.zeros((1, m), dtype=count_dtype)
    # the pass's scratch, before the level tables: 0.3-0.5 MB less peak RSS
    spare = [np.empty(2 * math.comb(N + m, m) * (N + 1) ** d)]
    levels = []
    for k in range(N):
        reached = (rows[:, None, :] + jump_inc) @ place           # (R_k, 1+m)
        # the distinct codes, ascending (np.unique's, without its numpy.ma
        # import)
        codes = np.sort(reached, axis=None)
        codes = codes[np.concatenate(([True], codes[1:] != codes[:-1]))]
        next_rows = np.searchsorted(codes, reached)
        for arr in (rows, next_rows):
            arr.setflags(write=False)
        levels.append(_Level(rows, next_rows, k, d, base))
        rows = (codes[:, None] // place % base).astype(count_dtype)
    for arr in (rows, sign_vectors, branch_jump, branch_probs):
        arr.setflags(write=False)
    levels.append(_Level(rows, None, N, d, base))

    def run(j, probs, stop):      # one scratch of two depth-stop grids
        scratch = spare.pop() if spare else np.empty(2 * levels[stop].size)
        for lev in levels[j:stop]:
            probs = _advance(lev, probs, branch_probs, up_inc, scratch)
            yield probs

    probs = _Checkpoints(np.ones(1), run, N, CHECKPOINT_STRIDE)
    return ScenarioTree(grid, marks, d, node_cap, sign_vectors, branch_jump,
                        branch_probs, levels, probs)
