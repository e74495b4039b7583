"""Acceptance battery: ten end-to-end criteria with pinned tolerances.

Each test prints exactly one verdict line of the form

    criterion NN [label]: PASS (details)

so a verbose run doubles as a checklist.  The criteria exercise the whole
stack: reference ladders, the change of picture, the analytic estimates,
the forward derivative, Newton inversion, trace identities, the product
form of the characteristic function, admissibility screening, spectral
fits, and symmetry transport.
"""

import dataclasses
import math
import time

import numpy as np

from liouville import (INF, ConditionU, FitTarget, GridFunction, Impedance,
                       ImpedanceProblem, Potential, SchrodingerProblem,
                       SequenceData, characterize, estimate_suite,
                       fit_impedance_detailed, fit_potential_detailed,
                       forward_transform,
                       frechet_apply, hadamard_wronskian, identity_ab,
                       identity_b, inner_product, invert_transform,
                       invert_transform_detailed, l2_norm,
                       normalizing_constants, resample, solve_spectrum,
                       sup_norm, symmetry_defect, unperturbed_eigenvalues,
                       unperturbed_norming, wronskian)
from oracles import SIN2PI_NORM_SQ, damped_spectrum, sin2pi_potential


def verdict(num, label, ok, detail):
    line = f"criterion {num:02d} [{label}]: " \
           f"{'PASS' if ok else 'FAIL'} ({detail})"
    print(line)
    assert ok, line


def sine_slope(coeffs, n=2048, scale=1.0):
    def fn(x):
        out = np.zeros_like(x)
        for k, c in enumerate(coeffs, start=1):
            out += c * np.sin(math.pi * k * x)
        return scale * out

    return Impedance(GridFunction.from_callable(fn, n))


def q_error(q_got, q_want):
    f = q_got.f if q_got.f.n == q_want.f.n else resample(q_got.f, q_want.f.n)
    return l2_norm(f - q_want.f)


def sine_mode(k, n):
    return GridFunction.from_callable(
        lambda x: math.sqrt(2.0) * np.sin(math.pi * k * x), n)


def cos_mode(k, n):
    return GridFunction.from_callable(
        lambda x: math.sqrt(2.0) * np.cos(math.pi * k * x), n)


def test_criterion_01_unperturbed_ladders():
    t0 = time.perf_counter()
    free = SchrodingerProblem(Potential(GridFunction.zeros(2048)))
    worst_eig = worst_nor = 0.0
    for b in (INF, 0.0):
        data = solve_spectrum(free, INF, b, 20)
        lam0 = unperturbed_eigenvalues(data.regime, 20)
        nor0 = unperturbed_norming(data.regime, 20)
        worst_eig = max(worst_eig,
                        float(np.max(np.abs(data.eigenvalues - lam0) / lam0)))
        worst_nor = max(worst_nor, float(np.max(np.abs(data.norming - nor0))))
    dt = time.perf_counter() - t0
    ok = worst_eig <= 1e-9 and worst_nor <= 1e-9 and dt <= 5.0
    verdict(1, "unperturbed ladders", ok,
            f"eig rel {worst_eig:.1e}, norming {worst_nor:.1e}, {dt:.1f}s")


def test_criterion_02_picture_equivalence():
    t0 = time.perf_counter()
    n = 1024
    x = np.linspace(0.0, 1.0, n + 1)
    impedances = (Impedance(GridFunction(np.sin(2 * math.pi * x))),
                  Impedance(GridFunction(0.4 * np.sin(2 * math.pi * x)
                                         - 0.2 * np.sin(4 * math.pi * x))))
    conditions = (ConditionU.zero(), ConditionU.exponential(1.0, 1.0))
    boundaries = ((INF, INF), (INF, 1.0), (1.0, -0.5))
    worst_eig = worst_nor = 0.0
    cases = 0
    # The package solves the impedance picture through the map; the oracle
    # integrates the damped impedance equation itself.
    for q in impedances:
        for u in conditions:
            for a, b in boundaries:
                data = solve_spectrum(ImpedanceProblem(q, u), a, b, 15)
                lam, norming = damped_spectrum(q, u, a, b, data.eigenvalues)
                scale = np.maximum(1.0, np.abs(lam))
                worst_eig = max(worst_eig, float(np.max(
                    np.abs(data.eigenvalues - lam) / scale)))
                worst_nor = max(worst_nor, float(np.max(
                    np.abs(data.norming - norming))))
                cases += 1
    dt = time.perf_counter() - t0
    ok = cases >= 6 and worst_eig <= 1e-6 and worst_nor <= 1e-6 and dt <= 60.0
    verdict(2, "picture equivalence", ok,
            f"{cases} cases, eig {worst_eig:.1e}, "
            f"norming {worst_nor:.1e}, {dt:.1f}s")


def test_criterion_03_estimate_suite():
    q_sin = Impedance(GridFunction.from_callable(
        lambda x: np.sin(2 * np.pi * x), 2048))
    p = forward_transform(q_sin)
    rel_norm = abs(l2_norm(p.f) ** 2 - SIN2PI_NORM_SQ) / SIN2PI_NORM_SQ

    rng = np.random.default_rng(11)
    worst_identity = 0.0
    lower_ok = quartic_ok = True
    for trial in range(100):
        coeffs = rng.normal(size=4) * rng.uniform(0.2, 1.5)
        q = sine_slope(coeffs, n=512)
        if trial % 2:
            u = ConditionU.exponential(rng.uniform(0.1, 1.0),
                                       rng.uniform(0.5, 2.0))
        else:
            u = ConditionU.zero()
        est = estimate_suite(q, u)
        row = est.row("pe1_identity")
        scale = max(abs(row.lhs), abs(row.rhs), 1.0)
        worst_identity = max(worst_identity, abs(row.margin) / scale)
        lower_ok &= est.row("pe1_lower").satisfied
        if u.is_zero:
            quartic_ok &= est.row("pe4_identity").satisfied
    ok = (worst_identity <= 1e-8 and lower_ok and quartic_ok
          and rel_norm <= 1e-8)
    verdict(3, "norm estimates", ok,
            f"identity {worst_identity:.1e}, closed form {rel_norm:.1e}, "
            f"100 randomized inputs")


def test_criterion_04_frechet_derivative():
    n, delta, K = 1024, 1e-6, 16
    bases = ((lambda x: 0.3 * np.sin(2 * np.pi * x), ConditionU.zero()),
             (lambda x: 0.4 * np.sin(2 * np.pi * x)
              - 0.2 * np.sin(4 * np.pi * x),
              ConditionU.exponential(0.5, 1.0, u1=(0.0, 0.2))))
    worst_fd = 0.0
    for base, cfg in bases:
        q = GridFunction.from_callable(base, n)
        for k in range(1, K + 1):
            e = sine_mode(k, n)
            plus = forward_transform(Impedance(q + e * delta), cfg)
            minus = forward_transform(Impedance(q - e * delta), cfg)
            fd = (plus.f - minus.f) * (0.5 / delta)
            exact = frechet_apply(Impedance(q), cfg, e)
            scale = max(l2_norm(exact), 1.0)
            worst_fd = max(worst_fd, l2_norm(fd - exact) / scale)

    m = 8192
    zero = Impedance(GridFunction.zeros(m))
    cfg0 = ConditionU.zero()
    worst_diag = 0.0
    for k in range(1, K + 1):
        image = frechet_apply(zero, cfg0, sine_mode(k, m))
        for j in range(1, K + 1):
            entry = inner_product(image, cos_mode(j, m))
            want = math.pi * k if j == k else 0.0
            worst_diag = max(worst_diag,
                             abs(entry - want) / (math.pi * k))
    ok = worst_fd <= 1e-4 and worst_diag <= 1e-9
    verdict(4, "forward derivative", ok,
            f"vs FD {worst_fd:.1e}, diagonal {worst_diag:.1e}")


def test_criterion_05_transform_inversion():
    plain = sine_slope([0.0, 1.0, 0.0, -0.2])
    rep_plain = invert_transform_detailed(forward_transform(plain))
    err_plain = q_error(rep_plain.q, plain)

    perturbed = sine_slope([0.3, 0.8, -0.1])
    cfg = ConditionU.exponential(0.5, 1.0)
    rep_pert = invert_transform_detailed(forward_transform(perturbed, cfg),
                                         cfg)
    err_pert = q_error(rep_pert.q, perturbed)

    steep = sine_slope([1.0, 0.6, -0.8, 0.0, 0.5, 0.0, 0.0, -0.4], scale=15.0)
    rep_steep = invert_transform_detailed(forward_transform(steep))
    err_steep = q_error(rep_steep.q, steep)

    tail = [v for v in rep_plain.residuals if v > 1e-13]
    ratios = [tail[i + 1] / tail[i] ** 2 for i in range(len(tail) - 1)]
    quadratic = len(tail) >= 3 and all(r < 100.0 for r in ratios[-3:])

    ok = (max(err_plain, err_pert, err_steep) <= 1e-6
          and rep_steep.restarted and quadratic)
    verdict(5, "transform inversion", ok,
            f"errors {err_plain:.1e}/{err_pert:.1e}/{err_steep:.1e}, "
            f"restarted={rep_steep.restarted}, quadratic={quadratic}")


def test_criterion_06_trace_identities():
    free_fine = SchrodingerProblem(Potential(GridFunction.zeros(8192)))
    data0 = solve_spectrum(free_fine, INF, 0.0, 64)
    zero_sum = float(np.max(np.abs(identity_b(free_fine, data0, 64))))

    decreasing = True
    finals = []
    free = SchrodingerProblem(Potential(GridFunction.zeros(2048)))
    bumped = SchrodingerProblem(Potential.from_callable(
        lambda x: 0.3 * sin2pi_potential(x), 2048))
    for prob in (free, bumped):
        data = solve_spectrum(prob, INF, 1.0, 64)
        sums = identity_b(prob, data, 64)
        errs = [abs(sums[M - 1] - 1.0) for M in (8, 16, 32, 64)]
        decreasing &= all(e1 > e2 for e1, e2 in zip(errs, errs[1:]))
        finals.append(errs[-1])

    data_ab = solve_spectrum(bumped, 1.0, -0.5, 64)
    s_b, s_a = identity_ab(bumped, data_ab, 64)
    pair_err = max(abs(s_b[-1] + 0.5), abs(s_a[-1] - 1.0))

    ok = (zero_sum <= 1e-10 and decreasing and max(finals) <= 0.05
          and pair_err <= 0.05)
    verdict(6, "trace identities", ok,
            f"zero case {zero_sum:.1e}, finals "
            f"{finals[0]:.3f}/{finals[1]:.3f}, pair {pair_err:.3f}")


def test_criterion_07_characteristic_product():
    prob = SchrodingerProblem(Potential.from_callable(
        lambda x: 0.3 * sin2pi_potential(x), 2048))
    data = solve_spectrum(prob, INF, 0.2, 64)
    decreasing = True
    worst_final = 0.0
    for lam in (-5.0, 3.3, 57.0):
        direct = wronskian(prob, lam, b=0.2)
        errs = [abs(hadamard_wronskian(data, lam, M) - direct)
                for M in (8, 16, 32, 64)]
        decreasing &= all(e1 > e2 for e1, e2 in zip(errs, errs[1:]))
        worst_final = max(worst_final, errs[-1] / max(1.0, abs(direct)))
    ok = decreasing and worst_final <= 1e-3
    verdict(7, "characteristic product", ok,
            f"monotone={decreasing}, final rel {worst_final:.1e}")


def test_criterion_08_admissibility():
    prob = SchrodingerProblem(Potential.from_callable(sin2pi_potential, 2048))
    data = solve_spectrum(prob, INF, INF, 32)
    alpha = normalizing_constants(prob, data)
    forward_ok = characterize(data, normalizing=alpha).passed

    lam = data.eigenvalues.copy()
    lam[[3, 4]] = lam[[4, 3]]
    swap_flagged = not characterize(
        dataclasses.replace(data, eigenvalues=lam)).passed

    n = np.arange(1, data.N + 1, dtype=float)
    fat = data.remainders.entries + n ** (-0.4)
    tail_flagged = not characterize(
        dataclasses.replace(data, remainders=SequenceData(fat))).passed

    inflated = alpha * (1.0 + 0.5 / np.sqrt(n))
    alpha_flagged = not characterize(data, normalizing=inflated).passed

    ok = forward_ok and swap_flagged and tail_flagged and alpha_flagged
    verdict(8, "admissibility screen", ok,
            f"forward={forward_ok}, corruptions flagged="
            f"{swap_flagged}/{tail_flagged}/{alpha_flagged}")


def test_criterion_09_inverse_fits():
    t0 = time.perf_counter()
    p_star = Potential.from_callable(
        lambda x: np.cos(2 * np.pi * x) - 0.3 * np.cos(4 * np.pi * x), 1024)
    data = solve_spectrum(SchrodingerProblem(p_star), INF, INF, 6)
    rep = fit_potential_detailed(FitTarget.from_spectral_data(
        data, regime="symmetric-dirichlet"))
    got = rep.potential.f if rep.potential.f.n == 1024 \
        else resample(rep.potential.f, 1024)
    sym_err = l2_norm(got - p_star.f)

    q_star = sine_slope([0.0, 0.4], n=1024)
    data_d = solve_spectrum(
        SchrodingerProblem(forward_transform(q_star)), INF, INF, 6)
    out_d = fit_impedance_detailed(FitTarget.from_spectral_data(
        data_d, regime="symmetric-dirichlet"))
    imp_err_d = q_error(out_d.q, q_star)

    q_star_m = sine_slope([0.0, 0.3, 0.0, -0.15], n=1024)
    cfg = ConditionU.exponential(0.5, 1.0)
    data_m = solve_spectrum(
        SchrodingerProblem(forward_transform(q_star_m, cfg)), INF, 1.0, 5)
    out_m = fit_impedance_detailed(FitTarget.from_spectral_data(data_m), cfg)
    imp_err_m = q_error(out_m.q, q_star_m)

    dt = time.perf_counter() - t0
    ok = (sym_err <= 1e-4 and imp_err_d <= 1e-3 and imp_err_m <= 1e-3
          and dt <= 600.0)
    verdict(9, "spectral fits", ok,
            f"symmetric {sym_err:.1e}, impedance {imp_err_d:.1e}/"
            f"{imp_err_m:.1e}, {dt:.1f}s")


def test_criterion_10_symmetry_transport():
    q = sine_slope([0.0, 1.0, 0.0, -0.3])
    p = forward_transform(q)
    even_defect = symmetry_defect(p.f, "even")
    q_back = invert_transform(p)
    odd_defect = symmetry_defect(q_back.f, "odd")
    ok = even_defect <= 1e-10 and odd_defect <= 1e-6
    verdict(10, "symmetry transport", ok,
            f"even image {even_defect:.1e}, odd preimage {odd_defect:.1e}")
