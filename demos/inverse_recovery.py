"""Recover coefficients from spectra, two ways.

First a Newton roundtrip: push an impedance profile through the forward
map and invert it back, including a steep profile where Newton from zero
stalls and the solver restarts from the Neumann ground state, whose
rho'/rho is the exact inverse when u = 0.  Then a
Gauss-Newton fit: reconstruct the profile from a handful of eigenvalues,
which is the desk-scale version of the inverse spectral problem.
"""

import math

import numpy as np

from liouville import (INF, FitTarget, GridFunction, Impedance,
                       SchrodingerProblem, fit_impedance_detailed,
                       forward_transform, invert_transform_detailed, l2_norm,
                       solve_spectrum)


def sine_slope(coeffs, scale=1.0, n=2048):
    x = np.linspace(0.0, 1.0, n + 1)
    out = np.zeros_like(x)
    for k, c in enumerate(coeffs, start=1):
        out += c * np.sin(math.pi * k * x)
    return Impedance(GridFunction(scale * out))


print("Newton roundtrip q -> p -> q:")
for label, q_star in (("gentle", sine_slope([0.0, 1.0, 0.0, -0.2])),
                      ("steep", sine_slope([1.0, 0.6, -0.8, 0.0, 0.5,
                                            0.0, 0.0, -0.4], scale=15.0))):
    rep = invert_transform_detailed(forward_transform(q_star))
    err = l2_norm(rep.q.f - q_star.f)
    print("  %-6s iterations=%2d restarted=%-5s residual=%.2e error=%.2e"
          % (label, rep.iterations, rep.restarted,
             rep.full_residual, err))
    tail = "  ".join("%.1e" % r for r in rep.residuals[-4:])
    print("         final residuals %s" % tail)

print("\nGauss-Newton fit from N = 6 eigenvalues (symmetric profile):")
q_star = sine_slope([0.0, 0.4], n=1024)
data = solve_spectrum(SchrodingerProblem(forward_transform(q_star)),
                      INF, INF, 6)
target = FitTarget.from_spectral_data(data, regime="symmetric-dirichlet")
out = fit_impedance_detailed(target)
err = l2_norm(out.q.f - q_star.f) if out.q.f.n == q_star.f.n else float("nan")
print("  fit iterations %d, fit residual %.2e"
      % (out.fit.iterations, out.fit.residuals[-1]))
print("  |q_fit - q_star| = %.2e" % err)
