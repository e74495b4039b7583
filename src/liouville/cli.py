"""Command-line front end for spectra, transforms, fits and verification.

Commands
--------
spectrum   solve a boundary pair and write truncated spectral data as JSON
transform  apply the slope-to-potential map and write the potential CSV
invert     recover a slope from a potential CSV (Newton; exit 4 on failure)
verify     run the estimate/admissibility/identity battery, write a report
fit        Gauss-Newton fit of a potential, or of a slope, to spectral data
export     re-emit spectral JSON or solution traces as plot-ready CSV

All outputs are deterministic: identical inputs (and seed) produce
byte-identical files.  Problem descriptions come either from CSV files or
inline: ``zero`` or ``fourier:[c1,c2,...]`` (sine modes for slopes, cosine
modes for potentials, both orthonormal).
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from .errors import (BracketError, ConditionError, DegenerateEigenfunctionError,
                     FitError, IntegrationError, InversionError,
                     PoleCollisionError, RangeError, TargetError)
from .grid import GridFunction, l2_norm, resample, trig_basis
from .inverse import (FitTarget, InversionConfig, fit_impedance_detailed,
                      fit_potential_detailed, invert_transform_detailed)
from .ode import (INF, ImpedanceProblem, SchrodingerProblem, resample_potential,
                  shoot_forward, wronskian)
from .serialize import (atomic_write_text, condition_from_dict, dump_json,
                        inversion_report_to_dict, load_json, read_grid_csv,
                        spectral_from_dict, spectral_to_dict, target_from_dict,
                        write_grid_csv)
from .spectral import (characterize, hadamard_wronskian, identity_ab,
                       identity_b, normalizing_constants, solve_spectrum,
                       unperturbed_eigenvalues)
from .transform import (ConditionU, DecayTerm, Impedance, Potential,
                        estimate_suite, forward_transform, frechet_apply)

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_SOLVER = 3
EXIT_INVERSION = 4
EXIT_VERIFY = 5
EXIT_FIT = 6

_SOLVER_ERRORS = (BracketError, ConditionError, DegenerateEigenfunctionError,
                  IntegrationError, PoleCollisionError, RangeError)


def _parse_series(text: str) -> np.ndarray:
    coeffs = json.loads(text)
    if not isinstance(coeffs, list) or not coeffs:
        raise ValueError("fourier coefficients must be a non-empty list")
    return np.asarray([float(c) for c in coeffs])


def _grid_values(spec: str, n: int, trig: str) -> GridFunction:
    """Grid function from ``zero``, ``fourier:[...]`` (on n cells) or a CSV path.

    A CSV keeps its own grid; the caller moves it to n cells.
    """
    if spec == "zero":
        return GridFunction(np.zeros(n + 1))
    if spec.startswith("fourier:"):
        coeffs = _parse_series(spec[len("fourier:"):])
        return GridFunction(coeffs @ trig_basis(trig, coeffs.size, n))
    return read_grid_csv(spec)


def _load_q(spec: str, n: int) -> Impedance:
    f = _grid_values(spec, n, "sine")
    return Impedance(f if f.n == n else resample(f, n))


def _load_p(spec: str, n: int) -> Potential:
    """Potential checked on the grid it was given on, then moved to n cells."""
    p = Potential(_grid_values(spec, n, "cosine"))
    return p if p.n == n else resample_potential(p, n)


def _load_u(spec: str) -> ConditionU:
    if spec == "zero":
        return ConditionU.zero()
    if spec.startswith("exp:"):
        amp, rate = (float(v) for v in spec[4:].split(","))
        return ConditionU(u2=DecayTerm(kind="exp", E=amp, beta=rate))
    if spec.startswith("poly:"):
        coeffs = tuple(float(c) for c in json.loads(spec[5:]))
        return ConditionU(u2=DecayTerm(kind="poly", coeffs=coeffs))
    return condition_from_dict(load_json(spec))


def _boundary(args) -> tuple:
    a, b, bc = args.a, args.b, args.bc
    if bc == "dirichlet":
        if a is not None or b is not None:
            raise ValueError("dirichlet takes no --a/--b values")
        return INF, INF
    if bc == "mixed":
        if b is None:
            raise ValueError("mixed boundary needs --b")
        if a is not None:
            raise ValueError("mixed boundary keeps the left end Dirichlet")
        return INF, b
    if bc == "generic":
        if a is None or b is None:
            raise ValueError("generic boundary needs --a and --b")
        return a, b
    return (INF if a is None else a, INF if b is None else b)


def _problem(args):
    """Impedance or normal-form problem from --q/--p flags."""
    if (args.q is None) == (args.p is None):
        raise ValueError("give exactly one of --q or --p")
    if args.q is not None:
        return ImpedanceProblem(_load_q(args.q, args.grid),
                                _load_u(args.u or "zero"))
    return SchrodingerProblem(_load_p(args.p, args.grid))


def _write_series_csv(path: str, labels, values) -> None:
    rows = ["n,value"]
    rows.extend(f"{int(n)},{v:.17g}" for n, v in zip(labels, values))
    atomic_write_text(path, "\n".join(rows) + "\n")


def cmd_spectrum(args) -> int:
    prob = _problem(args)
    a, b = _boundary(args)
    data = solve_spectrum(prob, a, b, args.N)
    dump_json(spectral_to_dict(data), args.out)
    print(f"wrote {args.out} ({data.regime}, N={data.N})")
    return EXIT_OK


def cmd_transform(args) -> int:
    ucfg = _load_u(args.u or "zero")
    q = _load_q(args.q, args.grid)
    p = forward_transform(q, ucfg)
    write_grid_csv(args.out, p.f)
    print(f"wrote {args.out} (|p| = {l2_norm(p.f):.6g})")
    return EXIT_OK


def _failed(exc, report: str | None, key: str, stage: str, code: int) -> int:
    """Report a failed stage and return its exit code.

    The JSON report, written when a path is given, holds the message and
    the residual history under ``key``; errors without a history give [].
    """
    if report:
        dump_json({"converged": False, "error": str(exc),
                   key: [float(r) for r in getattr(exc, "residuals", [])]},
                  report)
    print(f"{stage} failed: {exc}", file=sys.stderr)
    return code


def cmd_invert(args) -> int:
    ucfg = _load_u(args.u or "zero")
    p = _load_p(args.p, args.grid)
    icfg = InversionConfig(basis_size=args.basis, tol=args.tol)
    try:
        report = invert_transform_detailed(p, ucfg, icfg)
    except InversionError as exc:
        return _failed(exc, args.report, "residuals", "inversion",
                       EXIT_INVERSION)
    write_grid_csv(args.out, report.q.f)
    if args.report:
        dump_json(inversion_report_to_dict(report), args.report)
    print(f"wrote {args.out} (iterations={report.iterations}, "
          f"restarted={report.restarted})")
    return EXIT_OK


def _fit_target(args) -> FitTarget:
    if args.target:
        return target_from_dict(load_json(args.target))
    data = spectral_from_dict(load_json(args.data))
    return FitTarget.from_spectral_data(data, regime=args.regime or None)


def cmd_fit(args) -> int:
    icfg = InversionConfig(tol=args.tol, fit_grid=args.grid)
    try:
        target = _fit_target(args)
        if args.impedance:
            ucfg = _load_u(args.u or "zero")
            rep = fit_impedance_detailed(target, ucfg, icfg)
            result = rep.q.f
            report = {"converged": True, "kind": "impedance",
                      "fit_residuals": [float(r) for r in rep.fit.residuals],
                      "fit_iterations": rep.fit.iterations}
        else:
            rep = fit_potential_detailed(target, icfg)
            result = rep.potential.f
            report = {"converged": True, "kind": "potential",
                      "fit_residuals": [float(r) for r in rep.residuals],
                      "fit_iterations": rep.iterations}
    except (FitError, TargetError) as exc:
        return _failed(exc, args.report, "fit_residuals", "fit", EXIT_FIT)
    write_grid_csv(args.out, result)
    if args.report:
        dump_json(report, args.report)
    print(f"wrote {args.out} ({report['kind']} fit, "
          f"{report['fit_iterations']} iterations)")
    return EXIT_OK


def _check(name: str, margin: float, passed: bool) -> dict:
    return {"name": name, "margin": float(margin), "passed": bool(passed)}


def _product_check(prob, data) -> dict:
    """``product:refines``: the truncated product formula converges to the
    directly integrated characteristic function.

    Its error falls like M**-3, about 8x per doubling of the ladder, so at
    each probe it must fall at least 4x from M = N/2 to N, or sit below the
    rounding floor 1e-12 |w|.  Both probe points sit below the shorter
    ladder's coverage, where adding factors only appends shrinking far-slot
    corrections.  The margin is the worst full-ladder error relative to |w|.
    """
    N, a, b = data.N, data.a, data.b
    gaps = unperturbed_eigenvalues(data.regime, N + 1)
    worst_ratio, refines = 0.0, True
    for lam in (-4.0, gaps[1] + 0.37 * (gaps[2] - gaps[1])):
        direct = float(wronskian(prob, lam, a, b))
        half = abs(hadamard_wronskian(data, lam, max(1, N // 2)) - direct)
        full = abs(hadamard_wronskian(data, lam, N) - direct)
        scale = max(abs(direct), 1e-30)
        worst_ratio = max(worst_ratio, full / scale)
        if full > 1e-12 * scale and 4.0 * full > half:
            refines = False
    return _check("product:refines", worst_ratio, refines)


def _admissibility_checks(prefix: str, adm) -> list:
    """The ``prefix:*`` rows of one ``characterize`` report: ordering, the
    two tails, and the normalizing tail where the report tested it."""
    rows = [("ordering", 0.0 if adm.ordering_ok else 1.0, adm.ordering_ok),
            ("remainder_tail", adm.remainder_growth, adm.remainder_tail_ok),
            ("norming_tail", adm.norming_growth, adm.norming_tail_ok),
            ("normalizing_tail", adm.alpha_growth, adm.alpha_tail_ok)]
    return [_check(f"{prefix}:{name}", margin, ok)
            for name, margin, ok in rows if ok is not None]


def _verify_battery(args) -> list:
    ucfg = _load_u(args.u or "zero")
    q = _load_q(args.q or "zero", args.grid)
    a, b = _boundary(args)
    checks = []

    est = estimate_suite(q, ucfg)
    for row in est.rows:
        checks.append(_check(f"estimate:{row.name}", row.margin,
                             row.satisfied))

    prob = ImpedanceProblem(q, ucfg)
    data = solve_spectrum(prob, a, b, args.N)
    alphas = normalizing_constants(prob, data) \
        if data.regime == "dirichlet" else None
    checks += _admissibility_checks(
        "admissibility", characterize(data, normalizing=alphas))
    checks.append(_product_check(prob, data))

    if data.regime == "mixed":
        sums = identity_b(prob, data, args.N)
        mid = abs(sums[args.N // 2] - b)
        final = abs(sums[-1] - b)
        checks.append(_check("identity:b", final,
                             final <= mid + 1e-12 * max(1.0, abs(b))))
    elif data.regime == "generic":
        sums_b, sums_a = identity_ab(prob, data, args.N)
        err = max(abs(sums_b[-1] - b), abs(sums_a[-1] - a))
        mid = max(abs(sums_b[args.N // 2] - b), abs(sums_a[args.N // 2] - a))
        checks.append(_check("identity:ab", err,
                             err <= mid + 1e-12 * max(1.0, abs(a), abs(b))))

    checks.append(_frechet_spot_check(q, ucfg, args.seed))

    if args.data:
        checks += _admissibility_checks(
            "file", characterize(spectral_from_dict(load_json(args.data))))
    return checks


def _frechet_spot_check(q: Impedance, ucfg: ConditionU, seed: int) -> dict:
    """Directional derivative of the forward map against central differences."""
    rng = np.random.default_rng(seed)
    sines = trig_basis("sine", 4, q.f.n) / math.sqrt(2.0)
    worst = 0.0
    delta = 1e-6
    for _ in range(3):
        d = GridFunction(rng.normal(size=4) @ sines)
        plus = Impedance(GridFunction(q.f.values + delta * d.values))
        minus = Impedance(GridFunction(q.f.values - delta * d.values))
        fd = (forward_transform(plus, ucfg).f - forward_transform(minus, ucfg).f) \
            * (0.5 / delta)
        exact = frechet_apply(q, ucfg, d)
        err = l2_norm(fd - exact) / max(l2_norm(exact), 1.0)
        worst = max(worst, err)
    return _check("frechet:consistency", worst, worst <= 1e-4)


def cmd_verify(args) -> int:
    checks = _verify_battery(args)
    all_passed = all(c["passed"] for c in checks)
    report = {"checks": checks, "all_passed": all_passed, "seed": args.seed,
              "N": args.N, "grid": args.grid}
    dump_json(report, args.out)
    for c in checks:
        state = "pass" if c["passed"] else "FAIL"
        print(f"{state}  {c['name']}  margin={c['margin']:.3e}")
    print(f"wrote {args.out}")
    return EXIT_OK if all_passed else EXIT_VERIFY


def cmd_export(args) -> int:
    wrote = []
    if args.data:
        data = spectral_from_dict(load_json(args.data))
        labels = np.arange(data.N) + (1 if data.regime == "dirichlet" else 0)
        for name, values in (("eigenvalues", data.eigenvalues),
                             ("norming", data.norming),
                             ("remainders", data.remainders.entries)):
            path = f"{args.prefix}_{name}.csv"
            _write_series_csv(path, labels, values)
            wrote.append(path)
    if args.q or args.p:
        if args.lam is None:
            raise ValueError("trace export needs --lam")
        prob = _problem(args)
        trace = shoot_forward(prob, args.lam)
        path = f"{args.prefix}_trace.csv"
        write_grid_csv(path, trace.y)
        wrote.append(path)
    if not wrote:
        raise ValueError("nothing to export: give --data and/or --q/--p")
    print("wrote " + ", ".join(wrote))
    return EXIT_OK


def _add_checked(sub, flag: str, kind, default, ok, rule: str):
    """Register a flag whose text parses as ``kind`` and must pass ``ok``."""
    def parse(text: str):
        value = kind(text)
        if not ok(value):
            raise argparse.ArgumentTypeError(f"expected {rule}, got {text}")
        return value
    sub.add_argument(flag, type=parse, default=default, help=rule)


def _add_common(sub, *flags, out=None):
    """Register --grid plus each named flag; a command gets only what it
    reads.  --out is required unless ``out`` gives it a default."""
    _add_checked(sub, "--grid", int, 2048,
                 lambda n: 256 <= n <= 16384 and not n & (n - 1),
                 "grid cells, a power of two in [256, 16384]")
    if "N" in flags:
        _add_checked(sub, "--N", int, 10, lambda N: 1 <= N <= 64,
                     "number of eigenvalues, 1..64")
    if "tol" in flags:
        _add_checked(sub, "--tol", float, 1e-9,
                     lambda tol: math.isfinite(tol) and tol > 0.0,
                     "a finite positive iteration tolerance")
    if "seed" in flags:
        sub.add_argument("--seed", type=int, default=0,
                         help="seed for randomized checks")
    if "out" in flags:
        sub.add_argument("--out", required=out is None, default=out,
                         help="output path")


def _add_boundary(sub):
    sub.add_argument("--bc", choices=["dirichlet", "mixed", "generic"],
                     default=None)
    sub.add_argument("--a", type=float, default=None,
                     help="left boundary parameter (omit for Dirichlet)")
    sub.add_argument("--b", type=float, default=None,
                     help="right boundary parameter (omit for Dirichlet)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="liouville",
        description="Impedance-form spectra, the slope-to-potential "
                    "transform, and desk-scale inverse problems on [0,1].")
    subs = parser.add_subparsers(dest="command", required=True)

    sp = subs.add_parser("spectrum", help="solve one boundary pair")
    sp.add_argument("--q", help="slope: zero | fourier:[...] | file.csv")
    sp.add_argument("--p", help="potential: zero | fourier:[...] | file.csv")
    sp.add_argument("--u", default="zero",
                    help="perturbation: zero | exp:E,beta | poly:[...] | file.json")
    _add_boundary(sp)
    _add_common(sp, "N", "out")
    sp.set_defaults(func=cmd_spectrum)

    tr = subs.add_parser("transform", help="apply the forward map")
    tr.add_argument("--q", required=True)
    tr.add_argument("--u", default="zero")
    _add_common(tr, "out")
    tr.set_defaults(func=cmd_transform)

    inv = subs.add_parser("invert", help="invert the forward map")
    inv.add_argument("--p", required=True)
    inv.add_argument("--u", default="zero")
    _add_checked(inv, "--basis", int, 16, lambda K: 1 <= K <= 64,
                 "Galerkin dimension of the inversion, 1..64")
    inv.add_argument("--report", default=None,
                     help="write iteration report JSON here")
    _add_common(inv, "tol", "out")
    inv.set_defaults(func=cmd_invert)

    ver = subs.add_parser("verify", help="run the verification battery")
    ver.add_argument("--q", default="zero")
    ver.add_argument("--u", default="zero")
    ver.add_argument("--data", default=None,
                     help="also characterize this spectral JSON file")
    _add_boundary(ver)
    _add_common(ver, "N", "seed", "out", out="verify-report.json")
    ver.set_defaults(func=cmd_verify)

    fit = subs.add_parser("fit", help="fit to spectral targets")
    source = fit.add_mutually_exclusive_group(required=True)
    source.add_argument("--target", help="fit-target JSON")
    source.add_argument("--data", help="spectral-data JSON")
    fit.add_argument("--regime", default=None,
                     help="symmetric-dirichlet (Dirichlet data only)")
    fit.add_argument("--impedance", action="store_true",
                     help="recover the slope, not just the potential")
    fit.add_argument("--u", default="zero")
    fit.add_argument("--report", default=None)
    _add_common(fit, "tol", "out")
    fit.set_defaults(func=cmd_fit)

    ex = subs.add_parser("export", help="re-emit results as plot CSV")
    ex.add_argument("--data", default=None, help="spectral-data JSON")
    ex.add_argument("--q", default=None)
    ex.add_argument("--p", default=None)
    ex.add_argument("--u", default="zero")
    ex.add_argument("--lam", type=float, default=None,
                    help="spectral parameter for trace export")
    ex.add_argument("--prefix", required=True, help="output path prefix")
    _add_common(ex)
    ex.set_defaults(func=cmd_export)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_PARSE if exc.code not in (0, None) else EXIT_OK
    try:
        return args.func(args)
    except _SOLVER_ERRORS as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    except (ValueError, KeyError, TypeError, OSError,
            json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE


if __name__ == "__main__":
    sys.exit(main())
