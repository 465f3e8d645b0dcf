"""Outside-in instrumentation of the jumpbsde layers for the traced run.

Every public function and public method (plus ``__call__``) of each layer
module is wrapped, both where it is defined and under every name it is
imported as: module globals of any ``jumpbsde`` module and values of their
module-level dicts (``cli.COMMANDS``). Private helpers are not wrapped, so
their time is the self time of the public caller (``_tree_backward`` and the
distance meter inside ``picard_solve``, for example).

``integrals`` is on no CLI or solver path; it is wrapped like the others and
reported through ``integrals.calls`` (0 on every workload) and as an
unmeasured layer.
"""

import collections
import inspect
import os
import sys

LAYERS = ("rng", "randomness", "integrals", "generators", "norms", "solver",
          "estimates", "cli")
UNREACHED_LAYERS = ("integrals",)

DRIVER = "generators.GeneratorSpec.__call__"
PICARD = "solver.picard_solve"
PATH_TABLE = "solver.tree_path_table"
ENUMERATE = "randomness.ScenarioTree.enumerate_paths"
NORM_KERNELS = ("norms.sp_norm", "norms.mp_norm", "norms.class_d_norm")
REPORT_WRITERS = ("cli.write_report", "cli.write_csv",
                  "cli.append_estimate_log")
SIMULATORS = ("randomness.simulate_paths", "randomness.simulate_brownian",
              "randomness.simulate_poisson_measure",
              "randomness.merge_batches")


def _hooks(counters):
    """Counters kept at layer boundaries, from arguments and return values.

    Hooks read plain attributes only: calling a wrapped method here would
    record spans of its own.
    """
    def driver(args, kwargs, result):
        y = args[2] if len(args) > 2 else kwargs["y"]
        counters["generators.driver_rows"] += int(getattr(y, "size", 1))

    def picard(args, kwargs, result):
        problem = args[0] if args else kwargs["problem"]
        n_iter = result[1].n_iter
        k_hi = kwargs.get("k_hi") or problem.grid.steps
        steps = k_hi - kwargs.get("k_lo", 0)
        counters["solver.picard_iters"] += n_iter
        counters["solver.picard_step_sweeps"] += n_iter * steps

    def tree_built(args, kwargs, result):
        counters["randomness.lattice_states"] += sum(
            int(lev.codes.size) for lev in result.levels)

    def variates(args, kwargs, result):
        # normal() draws through uniform(), so uniforms count every variate
        counters["rng.variates"] += int(result.size)

    def norm_input(args, kwargs, result):
        sample = args[0] if args else kwargs["sample"]
        size = sample.values.nbytes
        if sample.weights is not None:
            size += sample.weights.nbytes
        counters["norms.bytes_in"] += int(size)

    def report_file(args, kwargs, result):
        counters["cli.report_bytes"] += os.path.getsize(result)

    return {
        DRIVER: driver,
        PICARD: picard,
        "randomness.build_scenario_tree": tree_built,
        "rng.uniform": variates,
        **{name: norm_input for name in NORM_KERNELS},
        **{name: report_file for name in REPORT_WRITERS},
    }


def _targets(module):
    """(span name, owner, attribute, function) for each public callable
    defined in ``module``."""
    layer = module.__name__.rsplit(".", 1)[-1]
    out = []
    for name, obj in vars(module).items():
        if (name.startswith("_")
                or getattr(obj, "__module__", None) != module.__name__):
            continue
        if inspect.isfunction(obj):
            out.append((f"{layer}.{name}", module, name, obj))
        elif inspect.isclass(obj) and not issubclass(obj, BaseException):
            for attr, val in vars(obj).items():
                if attr.startswith("_") and attr != "__call__":
                    continue
                if isinstance(val, (classmethod, staticmethod)):
                    fn = val.__func__
                elif inspect.isfunction(val):
                    fn = val
                else:
                    continue  # properties and data
                out.append((f"{layer}.{name}.{attr}", obj, attr, fn))
    return out


def instrument(tracer):
    """Wrap every layer's public callables; returns the counters they feed.

    The package must already be imported. Instrumentation lasts for the life
    of the process: the traced run uses a process of its own.
    """
    counters = collections.Counter()
    hooks = _hooks(counters)
    modules = [m for n, m in sorted(sys.modules.items())
               if n == "jumpbsde" or n.startswith("jumpbsde.")]
    # originals stay alive inside their wrappers, so their ids stay unique
    wrappers, wrapped = {}, set()
    for layer in LAYERS:
        module = sys.modules[f"jumpbsde.{layer}"]
        for span, owner, attr, fn in _targets(module):
            wrapper = tracer.wrap(fn, span, hooks.get(span))
            raw = vars(owner)[attr]
            if isinstance(raw, classmethod):
                setattr(owner, attr, classmethod(wrapper))
            elif isinstance(raw, staticmethod):
                setattr(owner, attr, staticmethod(wrapper))
            else:
                setattr(owner, attr, wrapper)
            wrappers[id(fn)] = wrapper
            wrapped.add(span)
    missing = set(hooks) - wrapped
    if missing:
        raise RuntimeError(f"hooked callables not found: {sorted(missing)}")
    for module in modules:
        namespace = vars(module)
        for key, val in list(namespace.items()):
            if id(val) in wrappers:
                namespace[key] = wrappers[id(val)]
            elif isinstance(val, dict):
                for dkey, dval in list(val.items()):
                    if id(dval) in wrappers:
                        val[dkey] = wrappers[id(dval)]
    return counters


def _sum(values, idx):
    return float(sum(values[i] for i in idx))


def metrics(tracer, counters):
    """Per-layer metrics of one traced run: name -> (value, unit).

    ``X_s`` is the time inside the outermost calls of X (children included),
    ``X_self_s`` and ``<layer>.self_s`` are self times.
    """
    names = tracer.names
    dur = tracer.durations()
    own = tracer.self_times()
    by_name = {}
    for idx, name in enumerate(names):
        by_name.setdefault(name, []).append(idx)

    def calls(*span_names):
        return sum(len(by_name.get(n, ())) for n in span_names)

    def incl(*span_names):
        return _sum(dur, tracer.outermost(span_names))

    def self_of(*span_names):
        return _sum(own, [i for n in span_names for i in by_name.get(n, ())])

    layer_self = {layer: 0.0 for layer in LAYERS}
    for idx, name in enumerate(names):
        layer_self[name.split(".", 1)[0]] += own[idx]

    table_spans = by_name.get(PATH_TABLE, [])
    enumerating = {tracer.parent[i] for i in by_name.get(ENUMERATE, ())}
    table_hits = sum(1 for i in table_spans if i not in enumerating)
    sweeps = counters["solver.picard_step_sweeps"]
    roots = [i for i, par in enumerate(tracer.parent) if par < 0]

    s, n = "s", "count"
    out = {
        "cli.config_s": (incl("cli.load_config"), s),
        "cli.report_s": (incl(*REPORT_WRITERS), s),
        "cli.report_bytes": (counters["cli.report_bytes"], "B"),
        "rng.variates": (counters["rng.variates"], n),
        "randomness.tree_build_s": (incl("randomness.build_scenario_tree"), s),
        "randomness.lattice_states": (
            counters["randomness.lattice_states"], n),
        "randomness.simulate_self_s": (self_of(*SIMULATORS), s),
        "randomness.state_paths_s": (incl("randomness.PathBatch.state_paths"), s),
        "randomness.state_paths_calls": (
            calls("randomness.PathBatch.state_paths"), n),
        "randomness.enumerate_paths_s": (incl(ENUMERATE), s),
        "randomness.enumerate_paths_calls": (calls(ENUMERATE), n),
        "randomness.section_norm_s": (
            incl("randomness.MarkSpace.section_norm"), s),
        "randomness.section_norm_calls": (
            calls("randomness.MarkSpace.section_norm"), n),
        "generators.driver_s": (self_of(DRIVER), s),
        "generators.driver_calls": (calls(DRIVER), n),
        "generators.driver_rows": (
            counters["generators.driver_rows"], n),
        "generators.driver_calls_per_step": (
            calls(DRIVER) / sweeps if sweeps else 0.0, "ratio"),
        "generators.zero_section_calls": (
            calls("generators.GeneratorSpec.zero_section"), n),
        "generators.terminal_s": (incl("generators.TerminalSpec.__call__"), s),
        "generators.check_lipschitz_s": (incl("generators.check_lipschitz"), s),
        "generators.check_lipschitz_calls": (
            calls("generators.check_lipschitz"), n),
        "norms.sp_norm_s": (incl("norms.sp_norm"), s),
        "norms.mp_norm_s": (incl("norms.mp_norm"), s),
        "norms.class_d_norm_s": (incl("norms.class_d_norm"), s),
        "norms.class_d_norm_calls": (calls("norms.class_d_norm"), n),
        "norms.calls": (calls(*NORM_KERNELS), n),
        "norms.bytes_in": (counters["norms.bytes_in"], "B"),
        "solver.picard_self_s": (self_of(PICARD), s),
        "solver.picard_calls": (calls(PICARD), n),
        "solver.picard_iters": (counters["solver.picard_iters"], n),
        "solver.solution_norms_s": (incl("solver.solution_norms"), s),
        "solver.solution_norms_calls": (calls("solver.solution_norms"), n),
        "solver.ladder_self_s": (self_of("solver.truncation_ladder_solve"), s),
        "solver.ladder_calls": (calls("solver.truncation_ladder_solve"), n),
        "solver.path_table_calls": (len(table_spans), n),
        "solver.path_table_hit_ratio": (
            table_hits / len(table_spans) if table_spans else 0.0, "ratio"),
        "estimates.functionals_s": (
            incl("estimates.solution_functionals"), s),
        "estimates.functionals_calls": (
            calls("estimates.solution_functionals"), n),
        "estimates.verify_self_s": (
            self_of("estimates.verify_zv_estimate",
                    "estimates.verify_full_estimate"), s),
        "estimates.uniqueness_self_s": (
            self_of("estimates.uniqueness_experiment"), s),
        "integrals.calls": (
            sum(1 for name in names if name.startswith("integrals.")), n),
        "trace.wall_s": (_sum(dur, roots), s),
        "trace.spans": (len(names), n),
    }
    for layer in LAYERS:
        out[f"{layer}.self_s"] = (layer_self[layer], s)
    return out
