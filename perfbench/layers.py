"""Per-layer metrics computed from the spans of one traced pass.

Totals are over the fixed op list of the traced pass, so every count repeats
exactly between two traced runs on one seed.  Times are seconds of wall clock
inside the wrapped calls.
"""

from __future__ import annotations

from collections import defaultdict

from tracer import self_times

# Each metric group and the wrapper it is read from; when that wrapper is
# missing at the commit under test the group is reported absent.
SOURCES = {
    "ode.sweeps_": "liouville.ode._sweep",
    "ode.cell_columns": "liouville.ode._sweep",
    "ode.propagate_s": "liouville.ode._sweep",
    "ode.ns_per_cell_column": "liouville.ode._sweep",
    "ode.step_": "liouville.ode._build_matrices",
    "ode.coefficients_s": "liouville.ode.ImpedanceProblem._coefficients",
    "spectral.bracket_": "liouville.spectral._count_below",
    "spectral.bisect_": "liouville.spectral._endpoint_w",
    "spectral.newton_": "liouville.spectral._newton_polish",
    "spectral.norming_s": "liouville.spectral._endpoint_quantities",
    "spectral.fine_share": "liouville.ode._sweep",
    "grid.resample_": "liouville.ode.resample",
    "transform.forward_": "liouville.inverse.forward_transform",
    "transform.frechet_": "liouville.inverse.frechet_apply",
    "inverse.newton_iters": "liouville.inverse._GalerkinMap.jacobian",
    "inverse.galerkin_jacobian_s": "liouville.inverse._GalerkinMap.jacobian",
    "inverse.homotopy_share": "liouville.inverse._newton_leg",
    "inverse.step_accept_ratio": "liouville.inverse._GalerkinMap.residual",
    "inverse.gn_iters": "liouville.inverse._FitMap.jacobian",
    "inverse.fit_jacobian_s": "liouville.inverse._FitMap.jacobian",
    "inverse.fit_solves": "liouville.inverse.solve_spectrum",
}


UNITS = {
    **{f"ode.sweeps_{mode}": "count" for mode in ("count", "endpoint", "deriv", "trace")},
    "ode.cell_columns": "count", "ode.step_build_s": "s", "ode.propagate_s": "s",
    "ode.ns_per_cell_column": "ns", "ode.step_bytes": "B", "ode.coefficients_s": "s",
    "spectral.bracket_sweeps": "count", "spectral.bracket_s": "s",
    "spectral.bisect_sweeps": "count", "spectral.bisect_s": "s",
    "spectral.newton_rounds": "count", "spectral.newton_s": "s",
    "spectral.norming_s": "s", "spectral.fine_share": "ratio",
    "spectral.ref_rel_err": "ratio",
    "grid.resample_calls": "count", "grid.resample_s": "s",
    "transform.forward_calls": "count", "transform.forward_s": "s",
    "transform.frechet_calls": "count", "transform.frechet_s": "s",
    "inverse.newton_iters": "count", "inverse.homotopy_share": "ratio",
    "inverse.step_accept_ratio": "ratio", "inverse.galerkin_jacobian_s": "s",
    "inverse.gn_iters": "count", "inverse.fit_solves": "count",
    "inverse.fit_jacobian_s": "s",
    "serialize.bytes_written": "B", "serialize.io_s": "s",
    "cli.import_s": "s", "cli.command_s": "s",
    "trace.ops_per_s_untraced": "1/s", "trace.ops_per_s_traced": "1/s",
    "trace.overhead": "ratio",
}


def absent_metrics(names, absent_wrappers) -> list:
    missing = set(absent_wrappers)
    return sorted(name for name in names for prefix, source in SOURCES.items()
                  if name.startswith(prefix) and source in missing)


def layer_metrics(spans, cli_facts, ref_rel_err) -> dict:
    """Every per-layer metric of the benchmark, keyed by name.

    ``cli_facts`` sums the CLI children's import and command times.
    """
    dur = [s[2] - s[1] for s in spans]
    own = self_times(spans)
    by = defaultdict(list)
    for i, s in enumerate(spans):
        by[s[0]].append(i)

    def total(name, times=dur):
        return float(sum(times[i] for i in by[name]))

    def parent_is(i, name):
        p = spans[i][3]
        return p is not None and spans[p][0] == name

    def info(i, key, default=None):
        facts = spans[i][5]
        return default if facts is None else facts.get(key, default)

    m = {}
    sweeps = by["ode._sweep"]
    for mode in ("count", "endpoint", "deriv", "trace"):
        m[f"ode.sweeps_{mode}"] = sum(1 for i in sweeps if info(i, "mode") == mode)
    cells = sum(info(i, "n", 0) * info(i, "K", 0) for i in sweeps)
    m["ode.cell_columns"] = cells
    m["ode.step_build_s"] = total("ode._build_matrices")
    m["ode.propagate_s"] = total("ode._sweep", own)
    sweep_s = total("ode._sweep")
    m["ode.ns_per_cell_column"] = 1e9 * sweep_s / cells if cells else 0.0
    m["ode.step_bytes"] = max((info(i, "bytes", 0) for i in by["ode._build_matrices"]),
                              default=0)
    m["ode.coefficients_s"] = total("ode._coefficients")

    m["spectral.bracket_sweeps"] = len(by["spectral._count_below"])
    m["spectral.bracket_s"] = total("spectral._count_below")
    bisect = [i for i in by["spectral._endpoint_w"]
              if not info(i, "deriv", True) and parent_is(i, "spectral._solve_levels")]
    m["spectral.bisect_sweeps"] = len(bisect)
    m["spectral.bisect_s"] = float(sum(dur[i] for i in bisect))
    m["spectral.newton_rounds"] = sum(
        1 for i in by["spectral._endpoint_w"] if parent_is(i, "spectral._newton_polish"))
    m["spectral.newton_s"] = total("spectral._newton_polish")
    m["spectral.norming_s"] = total("spectral._endpoint_quantities")
    # Doubled grid: sweeps at twice the coarsest sweep grid of their op.
    base = {}
    for i in sweeps:
        op = spans[i][4]
        base[op] = min(base.get(op, info(i, "n", 0)), info(i, "n", 0))
    fine_s = sum(dur[i] for i in sweeps if info(i, "n", 0) == 2 * base[spans[i][4]])
    m["spectral.fine_share"] = fine_s / sweep_s if sweep_s else 0.0
    m["spectral.ref_rel_err"] = ref_rel_err

    m["grid.resample_calls"] = len(by["grid.resample"])
    m["grid.resample_s"] = total("grid.resample")
    m["transform.forward_calls"] = len(by["transform.forward_transform"])
    m["transform.forward_s"] = total("transform.forward_transform")
    m["transform.frechet_calls"] = len(by["transform.frechet_apply"])
    m["transform.frechet_s"] = total("transform.frechet_apply")

    legs = by["inverse._newton_leg"]
    m["inverse.newton_iters"] = len(by["inverse.galerkin_jacobian"])
    ops_inverting = {spans[i][4] for i in legs}
    ops_homotopy = {spans[i][4] for i in legs if info(i, "scale", 1.0) < 1.0}
    m["inverse.homotopy_share"] = (len(ops_homotopy) / len(ops_inverting)
                                   if ops_inverting else 0.0)
    # Each leg logs one starting residual, then one entry per accepted step,
    # into a history list shared by the legs of an op.
    final = {}
    for i in legs:
        final[spans[i][4]] = max(final.get(spans[i][4], 0), info(i, "history", 0))
    history = sum(final.values())
    trials = len(by["inverse.galerkin_residual"]) - len(legs)
    m["inverse.step_accept_ratio"] = (history - len(legs)) / trials if trials > 0 else 0.0
    m["inverse.galerkin_jacobian_s"] = total("inverse.galerkin_jacobian")
    fit_ops = {spans[i][4] for i in by["inverse.fit_jacobian"]}
    m["inverse.gn_iters"] = len(by["inverse.fit_jacobian"])
    solves = sum(1 for i in by["spectral.solve_spectrum"] if spans[i][4] in fit_ops)
    m["inverse.fit_solves"] = solves / len(fit_ops) if fit_ops else 0.0
    m["inverse.fit_jacobian_s"] = total("inverse.fit_jacobian")

    m["serialize.bytes_written"] = sum(info(i, "bytes", 0) for i in by["serialize.write"])
    m["serialize.io_s"] = float(sum(total(name) for name in
                                    ("serialize.write", "serialize.read",
                                     "serialize.encode", "serialize.decode")))
    m["cli.import_s"] = cli_facts.get("import_s", 0.0)
    m["cli.command_s"] = cli_facts.get("command_s", 0.0)
    return m
