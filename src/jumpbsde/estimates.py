"""Empirical verification of the integrability hypothesis, the a priori
inequalities and uniqueness.

The inequalities bound the solution norms by a constant times a data term;
the constant exists but has no usable closed form, so verification means a
finite, stable implied constant lhs/rhs_core against a configured ceiling,
not comparison with a formula. On tree solutions every expectation is exact
(a leaf sweep with path probabilities); on path batches they are sample
means. The running sup of |Y| uses the recorded grid values: the discrete
scheme has no intra-step Y values, jumps being absorbed into the step
transition. The data terms |f(t_k, ., 0, 0, 0)| and |xi| come from one table
per representation (``solver._data_levels``), which ``check_integrability``
also integrates.
"""

import math
from dataclasses import asdict, dataclass

import numpy as np

from .generators import make_generator, make_problem, make_terminal
from .norms import _wmean, abs_pow
from .randomness import build_scenario_tree, make_mark_space
from .solver import (_data_levels, _picard, _prepare, _represent, _setup,
                     solve_tree)

__all__ = [
    "EstimateReport",
    "check_integrability",
    "verify_zv_estimate",
    "verify_full_estimate",
    "uniqueness_experiment",
    "solution_functionals",
    "ci_suite",
    "ci_suite_csv_rows",
    "DEFAULT_CEILING",
]

DEFAULT_CEILING = 1e3


@dataclass(frozen=True)
class EstimateReport:
    """One verified inequality: lhs <= implied_constant * rhs_core."""

    name: str
    lhs: float
    rhs_core: float
    implied_constant: float
    p: float
    kappa: float
    horizon: float
    fingerprint: str
    ceiling: float
    passed: bool
    anomalous: bool = False

    def to_json_dict(self):
        return asdict(self)


def solution_functionals(solution, problem, p):
    """Per-path functionals entering the estimates, with path weights.

    Returns dict of arrays: sup |Y|, int |Z|^2 ds, int int |V|^p lambda ds,
    int |f(s,0,0,0)| ds, |xi|, and weights. Exact on explicit trees, sample
    versions on path batches.
    """
    rep = _represent(solution, problem)
    terms = rep.functional_terms(problem, p, solution)
    return {"weights": rep.weights,
            **{name: rep.sweep.leaves(term())
               for name, term in terms.items()}}


def check_integrability(problem, n_paths=10_000, seed=0, method="mc",
                        tree=None):
    """Estimates of E|xi| and E int |f(s,0,0,0)| ds with standard errors.

    method="tree" evaluates both exactly from the marginal state
    probabilities of the tree (the recombined lattice unless an explicit
    tree is given), with zero SE; method="mc" takes sample means over a
    simulated batch of ``n_paths`` paths.
    """
    rep = _setup(problem, method, tree, n_paths=n_paths, seed=seed)
    data, dt = _data_levels(rep, problem), problem.grid.dt
    xi_mean, xi_se = rep.integrate(data, lambda levels: levels[-1])
    f0_mean, f0_se = rep.integrate(data, lambda levels: sum(levels[:-1]) * dt)
    out = {"xi_abs_mean": xi_mean, "xi_abs_se": xi_se,
           "f0_integral_mean": f0_mean, "f0_integral_se": f0_se}
    if method == "mc":
        return {**out, "estimator": "mc", "n_paths": n_paths, "seed": seed}
    return {**out, "estimator": "tree",
            "n_paths": rep.tree.n_states(problem.grid.steps)}


def _report(name, lhs, rhs_core, problem, p, ceiling):
    """The EstimateReport of lhs <= C rhs_core; rhs_core = 0 < lhs is
    possible only via numerical error and is flagged anomalous."""
    if rhs_core > 0:
        implied, anomalous = lhs / rhs_core, False
    else:
        implied, anomalous = (0.0, False) if lhs == 0.0 else (math.inf, True)
    return EstimateReport(
        name=name, lhs=lhs, rhs_core=rhs_core, implied_constant=implied,
        p=p, kappa=problem.generator.lipschitz_kappa,
        horizon=problem.grid.horizon, fingerprint=problem.fingerprint(),
        ceiling=ceiling, passed=(not anomalous) and implied <= ceiling,
        anomalous=anomalous)


def _estimates(solution, problem, p, ceiling, full):
    """The zv report and, with ``full``, the full one (else None), from one
    pass over the path functionals, each computed once. Each side of an
    inequality is E of its per-path terms added left to right, in the order
    the docstrings of ``verify_zv_estimate`` and ``verify_full_estimate``
    write them. The terms are taken to the power p per walk prefix; a
    side's sum is the one per-path vector it adds to the terms held."""
    p = problem.p if p is None else p
    if full and p <= 1:
        raise ValueError("full estimate requires p > 1")
    if p <= 0:
        raise ValueError("p must be positive")
    rep = _represent(solution, problem)
    fn = rep.functional_terms(problem, p, solution)

    def expect(*parts):
        return _wmean(rep.weights, rep.sweep.leaves(*parts))

    f0 = abs_pow(fn["int_f0_abs"](), p)
    if full:
        rhs_full = expect(abs_pow(fn["xi_abs"](), p), f0)
    sup = abs_pow(fn["sup_abs_y"](), p)
    rhs_zv = expect(sup, f0)
    del f0          # the Z and V sums reuse its memory
    z = fn["int_z_sq"]()
    z = abs_pow(np.sqrt(z, out=z), p)
    v = fn["int_v_p"]()
    zv = _report("zv-vs-y", expect(z, v), rhs_zv, problem, p, ceiling)
    if not full:
        return zv, None
    return zv, _report("full-vs-data", expect(sup, z, v), rhs_full, problem,
                       p, ceiling)


def verify_zv_estimate(solution, problem, p=None, ceiling=DEFAULT_CEILING):
    """E[(int |Z|^2)^{p/2} + int int |V|^p lambda ds] against
    E[sup |Y|^p + (int |f0|)^p]."""
    return _estimates(solution, problem, p, ceiling, full=False)[0]


def verify_full_estimate(solution, problem, p=None, ceiling=DEFAULT_CEILING):
    """E[sup |Y|^p + (int |Z|^2)^{p/2} + int int |V|^p lambda ds] against
    E[|xi|^p + (int |f0|)^p]; requires p > 1."""
    return _estimates(solution, problem, p, ceiling, full=True)[1]


# ---------------------------------------------------------------------------
# uniqueness
# ---------------------------------------------------------------------------

def uniqueness_experiment(problem, method="tree", perturbations=None,
                          tree=None, batch=None, tol=1e-9, q=None,
                          se_reps=4, *, _first_run=None, **picard_kwargs):
    """Solve from several Picard initializations (and regression bases) and
    report the spread of the final solutions.

    Tree solves are deterministic: pass iff the max pairwise S^q distance is
    <= 2 tol. MC solves compare Y_0 within 2 tol + 3 SE, the SE estimated
    from replicates of the first configuration on independent batches of the
    run's size and basis degree (seeds batch seed + 1000 + r). Any inner
    divergence makes the experiment inconclusive. ``_first_run`` is the
    (Solution, PicardTrace) of the first perturbation when the caller has
    already solved it on the same tree or batch with the same keywords.
    """
    if perturbations is None:
        perturbations = [{"init": (0.0, 0.0, 0.0)},
                         {"init": (10.0, 1.0, 1.0)}]
    picard_kwargs.setdefault("check_assumptions", False)
    rep, kwargs = _prepare(problem, method, tree, batch, picard_kwargs)
    runs = [] if _first_run is None else [(perturbations[0], *_first_run)]
    for pert in perturbations[len(runs):]:
        run_rep = rep
        if "basis_degree" in pert:
            run_rep = _setup(problem, method, rep.tree, rep.batch,
                             basis_degree=pert["basis_degree"])
        sol, tr = _picard(run_rep, problem, tol=tol, q=q,
                          init=pert.get("init", (0.0, 0.0, 0.0)), **kwargs)
        runs.append((pert, sol, tr))
    if any(tr.diverged for _, _, tr in runs):
        return {"conclusive": False, "passed": None,
                "reason": "an inner solve reported divergence",
                "traces": [tr.to_json_dict() for _, _, tr in runs]}

    q_used = runs[0][2].q
    max_pair, max_dy0 = 0.0, 0.0
    for i in range(len(runs)):
        for j in range(i + 1, len(runs)):
            a, b = runs[i][1], runs[j][1]
            max_dy0 = max(max_dy0, abs(a.y0 - b.y0))
            max_pair = max(max_pair,
                           rep.sup_norm(map(np.subtract, a.y, b.y), q_used))

    se_y0 = 0.0
    if method == "mc":
        y0s = []
        for r in range(se_reps):
            rep_r = _setup(problem, "mc", n_paths=rep.n_paths,
                           seed=rep.batch.seed + 1000 + r,
                           basis_degree=rep.degree)
            y0s.append(_picard(rep_r, problem, tol=tol, q=q, **kwargs)[0].y0)
        se_y0 = float(np.std(y0s, ddof=1))
        passed = max_dy0 <= 2 * tol + 3 * se_y0
    else:
        passed = max_pair <= 2 * tol
    return {"conclusive": True, "passed": bool(passed),
            "max_pairwise_sq_distance": max_pair, "max_y0_difference": max_dy0,
            "se_y0": se_y0, "q": q_used, "tol": tol,
            "traces": [tr.to_json_dict() for _, _, tr in runs]}


# ---------------------------------------------------------------------------
# the seed-pinned CI suite: 3 drivers x 2 horizons x 2 p
# ---------------------------------------------------------------------------

def _suite_problem(form, params, kappa_args, T, p, steps=6):
    marks = make_mark_space([[1.0]], [1.0])
    gen = make_generator(form, params, marks=marks, d=1, p=p, **kappa_args)
    term = make_terminal("state-linear",
                         {"brownian_weights": [1.0], "jump_weights": [0.5],
                          "compensated": True},
                         marks=marks, d=1, p=p)
    return make_problem(T, steps, 1, marks, gen, term)


SUITE_DRIVERS = [
    ("affine", {"a": 0.5, "b": [0.25], "c": [0.4]}, {}),
    ("lipschitz-smooth", {"ay": 0.5, "bz": [0.25], "cv": 0.25}, {}),
    ("zv-coupled", {"cy": 0.3, "cz": 0.3, "cv": 0.3}, {}),
]
SUITE_HORIZONS = (0.5, 1.0)
SUITE_P = (1.5, 2.0)


def ci_suite(ceiling=DEFAULT_CEILING, steps=6):
    """Run the 12-instance estimate suite on exact tree solves.

    One record per instance, carrying both the zv and the full report.
    """
    records = []
    for form, params, kargs in SUITE_DRIVERS:
        for T in SUITE_HORIZONS:
            for p in SUITE_P:
                problem = _suite_problem(form, params, kargs, T, p, steps)
                tree = build_scenario_tree(problem.grid, problem.marks,
                                           problem.d)
                sol = solve_tree(problem, tree)
                zv, full = _estimates(sol, problem, p, ceiling, full=True)
                records.append({
                    "driver": form, "horizon": T, "p": p,
                    "kappa": problem.generator.lipschitz_kappa,
                    "zv": zv, "full": full,
                })
    return records


def ci_suite_csv_rows(records):
    rows = [["driver", "p", "horizon", "kappa", "zv_implied_constant",
             "full_implied_constant", "passed"]]
    for r in records:
        rows.append([r["driver"], r["p"], r["horizon"], r["kappa"],
                     repr(r["zv"].implied_constant),
                     repr(r["full"].implied_constant),
                     r["zv"].passed and r["full"].passed])
    return rows
