"""Pathwise Brownian and compensated-jump integrals with their bookkeeping.

Integrands follow the predictable convention: the field value of step j (left
endpoint t_j) applies to every event in (t_j, t_{j+1}] and to that step's
compensator. With finitely many marks the compensated-jump integral is a
finite sum per path, so no limiting construction is needed; the running value
is recorded at grid nodes and at every jump event, which is what lets the
jump identity be checked at exact jump times.

Discrete dynamics of M between records: +V at each jump, minus the step's
compensator sum_i V_j(e_i) lambda_i dt applied at the step's right node.
"""

from dataclasses import dataclass, field

import numpy as np

from .randomness import TimeGrid, MarkSpace, PathBatch

__all__ = [
    "RandomField",
    "IntegralResult",
    "IdentityReport",
    "brownian_integral",
    "poisson_integral_compensated",
    "quadratic_variation",
    "jump_identity_check",
    "lp_field_norm",
]


@dataclass(frozen=True)
class RandomField:
    """Predictable integrand V: value per (path, step, mark)."""

    values: np.ndarray  # (n_paths, N, m)
    grid: TimeGrid
    marks: MarkSpace

    def __post_init__(self):
        v = self.values
        if v.ndim != 3 or v.shape[1] != self.grid.steps or v.shape[2] != self.marks.m:
            raise ValueError(
                f"field shaped {v.shape}, expected (n_paths, {self.grid.steps}, "
                f"{self.marks.m})")
        if not np.all(np.isfinite(v)):
            raise ValueError("field values must be finite")

    @classmethod
    def constant(cls, value, grid, marks, n_paths):
        v = np.full((n_paths, grid.steps, marks.m), float(value))
        v.setflags(write=False)
        return cls(v, grid, marks)

    @classmethod
    def from_mark_values(cls, per_mark, grid, marks, n_paths):
        """Deterministic field: same per-mark section at every (path, step)."""
        per_mark = np.asarray(per_mark, dtype=float).reshape(-1)
        if per_mark.size != marks.m:
            raise ValueError(f"need {marks.m} per-mark values, got {per_mark.size}")
        v = np.broadcast_to(per_mark, (n_paths, grid.steps, marks.m)).copy()
        v.setflags(write=False)
        return cls(v, grid, marks)


@dataclass(frozen=True)
class IntegralResult:
    """Running compensated-jump integral M and its quadratic variation.

    m_nodes / qv_nodes are values at grid nodes (n, N+1) with M_0 = 0;
    m_at_jumps / qv_at_jumps align with the batch's flat jump arrays and give
    the value immediately after each jump.
    """

    grid: TimeGrid
    m_nodes: np.ndarray
    qv_nodes: np.ndarray
    m_at_jumps: np.ndarray
    qv_at_jumps: np.ndarray

    @property
    def terminal(self):
        return self.m_nodes[:, -1]

    @property
    def terminal_qv(self):
        return self.qv_nodes[:, -1]

    def to_json_dict(self):
        return {
            "grid": self.grid.to_json_dict(),
            "terminal_values": self.terminal.tolist(),
            "terminal_quadratic_variation": self.terminal_qv.tolist(),
        }


def _check_field_batch(V, batch):
    if not isinstance(batch, PathBatch) or not batch.has_jumps:
        raise ValueError("batch must carry a jump part")
    if V.grid.to_json_dict() != batch.grid.to_json_dict():
        raise ValueError("field and batch grids differ")
    if V.marks.m != batch.marks.m:
        raise ValueError("field and batch mark spaces differ")
    if V.values.shape[0] != batch.n_paths:
        raise ValueError(
            f"field has {V.values.shape[0]} paths, batch has {batch.n_paths}")


def brownian_integral(Z, batch):
    """Running integral of Z against the Brownian increments: (n, N+1).

    M_{t_j} = sum_{k<j} Z_k . dB_k with the per-step dot product; M_0 = 0.
    """
    if not batch.has_brownian:
        raise ValueError("batch carries no Brownian part")
    Z = np.asarray(Z, dtype=float)
    want = (batch.n_paths, batch.grid.steps, batch.d)
    if Z.shape != want:
        raise ValueError(f"Z shaped {Z.shape}, expected {want}")
    steps = np.einsum("njd,njd->nj", Z, batch.brownian_increments)
    out = np.zeros((batch.n_paths, batch.grid.steps + 1))
    np.cumsum(steps, axis=1, out=out[:, 1:])
    return out


def _node_accumulate(batch, path_of, per_jump):
    """Cumulative per-node sums of per-jump quantities: (n, N+1)."""
    out = np.zeros((batch.n_paths, batch.grid.steps + 1))
    np.add.at(out, (path_of, batch.jump_steps + 1), per_jump)
    return np.cumsum(out, axis=1, out=out)


def poisson_integral_compensated(V, batch):
    """Integral of V against the compensated jump measure, with [M, M]."""
    _check_field_batch(V, batch)
    path_of = batch.jump_paths
    vals = V.values[path_of, batch.jump_steps, batch.jump_mark_idx]

    jump_nodes = _node_accumulate(batch, path_of, vals)
    comp_steps = (np.einsum("njm,m->nj", V.values, batch.marks.intensities)
                  * batch.grid.dt)
    comp_nodes = np.zeros_like(jump_nodes)
    np.cumsum(comp_steps, axis=1, out=comp_nodes[:, 1:])
    m_nodes = jump_nodes - comp_nodes

    qv_nodes = _node_accumulate(batch, path_of, vals ** 2)

    # value right after each jump: completed-step compensator + jump part so far
    first = batch.jump_offsets[path_of]  # start index of each jump's path
    cum = np.cumsum(vals)
    jump_cum = cum - np.where(first > 0, cum[first - 1], 0.0)
    cum2 = np.cumsum(vals ** 2)
    qv_at_jumps = cum2 - np.where(first > 0, cum2[first - 1], 0.0)
    m_at_jumps = jump_cum - comp_nodes[path_of, batch.jump_steps]

    for a in (m_nodes, qv_nodes, m_at_jumps, qv_at_jumps):
        a.setflags(write=False)
    return IntegralResult(batch.grid, m_nodes, qv_nodes, m_at_jumps, qv_at_jumps)


def quadratic_variation(V, batch):
    """Running [M, M] at grid nodes: sum of squared field values at jumps."""
    return poisson_integral_compensated(V, batch).qv_nodes


@dataclass(frozen=True)
class IdentityReport:
    """Per-path outcome of the jump/bookkeeping identity check."""

    passed: np.ndarray                 # (n,) bool
    first_violation: list = field(default_factory=list)

    @property
    def all_passed(self):
        return bool(self.passed.all())


def jump_identity_check(V, result, batch):
    """Verify the result's recorded values realize the jump identity exactly.

    Reconstructs the canonical record from (V, batch) and compares bitwise:
    at every jump the recorded M must equal the reconstruction (so the jump
    increment is exactly the field value there), and at every node the
    between-jump drift must be exactly the step compensator. Any tampered
    value shows up as the first violating location of its path.
    """
    _check_field_batch(V, batch)
    expected = poisson_integral_compensated(V, batch)
    n = batch.n_paths
    passed = np.ones(n, dtype=bool)
    violations = []

    node_bad = (expected.m_nodes != result.m_nodes) | (
        expected.qv_nodes != result.qv_nodes)
    jump_bad = (expected.m_at_jumps != result.m_at_jumps) | (
        expected.qv_at_jumps != result.qv_at_jumps)
    for k in np.nonzero(node_bad.any(axis=1) |
                        np.bincount(batch.jump_paths,
                                    weights=jump_bad.astype(float),
                                    minlength=n).astype(bool))[0]:
        passed[k] = False
        bad_nodes = np.nonzero(node_bad[k])[0]
        a, b = batch.jump_offsets[k], batch.jump_offsets[k + 1]
        bad_jumps = np.nonzero(jump_bad[a:b])[0]
        t_node = batch.grid.nodes[bad_nodes[0]] if bad_nodes.size else np.inf
        t_jump = batch.jump_times[a + bad_jumps[0]] if bad_jumps.size else np.inf
        if t_jump <= t_node:
            violations.append({"path": int(k), "kind": "jump",
                               "time": float(t_jump),
                               "jump_index": int(bad_jumps[0])})
        else:
            violations.append({"path": int(k), "kind": "node",
                               "time": float(t_node),
                               "node_index": int(bad_nodes[0])})

    passed.setflags(write=False)
    return IdentityReport(passed, violations)


def lp_field_norm(V, p, weights=None):
    """Sample L^p field norm: (E sum_steps sum_i |V|^p lambda_i dt)^(1/p).

    weights are per-path probabilities (uniform when omitted); the sectional
    per-time norm used inside generators is MarkSpace.section_norm.
    """
    if p < 1:
        raise ValueError(f"p must be >= 1, got {p}")
    per_path = np.einsum("njm,m->n", np.abs(V.values) ** p,
                         V.marks.intensities) * V.grid.dt
    if weights is None:
        mean = float(np.mean(per_path))
    else:
        mean = float(np.einsum("n,n->", np.asarray(weights), per_path))
    return mean ** (1.0 / p)
