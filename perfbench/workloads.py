"""The four benchmark workloads: seeded inputs, one timed op, reference checks.

Every input is a pure function of ``(seed, op index)``, so a run that
completes k ops has seen the same k inputs as any other run on that seed.
Reference checks run after the timed loop and never inside an op.
"""

from __future__ import annotations

import hashlib
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

import oracle

INF = math.inf
N_SPECTRA = 64
GRID = 2048
FIT_GRID = 1024
EXP_U = (0.5, 1.0)  # u2(Q) = E exp(-beta Q), the CLI's exp:0.5,1.0

# Robin-Robin spectra are checked by picture equivalence, the rest against
# the finite-difference oracle; fits use the criterion 05 and 09 bounds.
SPECTRA_TOL = 1e-6
EQUIVALENCE_TOL = 1e-8
SLOPE_TOL = 1e-6
FIT_POTENTIAL_TOL = 1e-4
FIT_SLOPE_TOL = 1e-3
# Inversion targets stay at sup|q| <= SUP_Q.  Continuation starts near
# sup|q| = 12, and past that some targets stagnate and raise InversionError.
SUP_Q = 10.0


def _rng(seed: int, i: int) -> np.random.Generator:
    return np.random.default_rng([seed, i])


def _unit(v: np.ndarray) -> np.ndarray:
    return v / np.linalg.norm(v)


class SineSlope:
    """Closed form of q = sum_k c_k sqrt(2) sin(freq pi k x), k = 1..K."""

    def __init__(self, coeffs, freq: int = 1):
        self.c = np.asarray(coeffs, dtype=float)
        self.w = freq * math.pi * np.arange(1, self.c.size + 1)

    def q(self, x):
        return self.c @ (math.sqrt(2.0) * np.sin(np.outer(self.w, x)))

    def dq(self, x):
        return (self.c * self.w) @ (math.sqrt(2.0) * np.cos(np.outer(self.w, x)))

    def Q(self, x):
        return (self.c / self.w) @ (math.sqrt(2.0) * (1.0 - np.cos(np.outer(self.w, x))))

    def grid(self, n: int) -> np.ndarray:
        v = self.q(np.linspace(0.0, 1.0, n + 1))
        v[0] = v[-1] = 0.0
        return v

    def potential_plus_c0(self, exp_u):
        """x -> q' + q**2 + u: the normal-form potential before removing c0."""
        def pv(x):
            x = np.asarray(x, dtype=float)
            out = self.dq(x) + self.q(x) ** 2
            if exp_u is not None:
                out = out + exp_u[0] * np.exp(-exp_u[1] * self.Q(x))
            return out
        return pv


def _condition(L, exp_u):
    return L.ConditionU.zero() if exp_u is None else L.ConditionU.exponential(*exp_u)


def _l2_distance(L, got: np.ndarray, want: np.ndarray) -> float:
    return L.l2_norm(L.GridFunction(got - want))


class Workload:
    """Base: ``make_input`` (untimed), ``run`` (the op), ``check`` (reference)."""

    name = ""
    traced_ops = 1
    cycle = 1  # inputs repeat their kinds with this period; runs end on whole cycles
    launcher = None  # CLI workloads: a script that runs each command traced

    def __init__(self, L, seed: int, workdir: Path):
        self.L = L
        self.seed = seed
        self.workdir = workdir
        self.ref_rel_err = 0.0  # worst relative eigenvalue error seen by ``check``

    def warm_up(self) -> None:
        """One small call that pays the lazy imports (scipy.interpolate)."""
        L = self.L
        p = L.Potential(L.GridFunction(np.zeros(257)))
        L.solve_spectrum(L.SchrodingerProblem(p), INF, INF, 2)


class Spectra(Workload):
    """Warm solve_spectrum(ImpedanceProblem(q, u), a, b, N=64) at n = 2048."""

    name = "spectra"
    traced_ops = 3
    cycle = 6
    BOUNDARIES = ((INF, INF), (INF, 1.0), (1.0, -0.5))

    def make_input(self, i: int):
        slope = SineSlope(_unit(_rng(self.seed, i).normal(size=6)))
        exp_u = EXP_U if i % 2 else None
        a, b = self.BOUNDARIES[i % 3]
        return {"slope": slope, "exp_u": exp_u, "a": a, "b": b}

    def run(self, inp):
        L = self.L
        q = L.Impedance(L.GridFunction(inp["slope"].grid(GRID)))
        prob = L.ImpedanceProblem(q, _condition(L, inp["exp_u"]))
        data = L.solve_spectrum(prob, inp["a"], inp["b"], N_SPECTRA)
        return {"eig": np.array(data.eigenvalues), "q": q}

    def check(self, inp, out) -> float:
        """Worst relative eigenvalue error against the reference."""
        L, a, b = self.L, inp["a"], inp["b"]
        eig = out["eig"]
        if math.isinf(a):
            ref = oracle.eigenvalues(inp["slope"].potential_plus_c0(inp["exp_u"]),
                                     N_SPECTRA, b)
            err = float(np.max(np.abs(eig - ref) / np.abs(ref)))
            self.ref_rel_err = max(self.ref_rel_err, err)
            return err / SPECTRA_TOL
        cfg = _condition(L, inp["exp_u"])
        imp = L.ImpedanceProblem(out["q"], cfg)
        sch = L.SchrodingerProblem(L.forward_transform(out["q"], cfg))
        ref = L.solve_spectrum(sch, a, b, N_SPECTRA).eigenvalues + imp.c0
        err = float(np.max(np.abs(eig - ref) / np.maximum(1.0, np.abs(ref))))
        self.ref_rel_err = max(self.ref_rel_err, err)
        return err / EQUIVALENCE_TOL


class Inversion(Workload):
    """Warm invert_transform_detailed at n = 2048, Galerkin basis 16."""

    name = "inversion"
    traced_ops = 64
    cycle = 4

    def slope(self, i: int) -> SineSlope:
        """0.7 A sum_k c_k sin(pi k x), c_k ~ N(0, 1), scaled down to sup|q| = SUP_Q
        when it is larger (about 8% of targets)."""
        rng = _rng(self.seed, i)
        amplitude = rng.uniform(0.5, 4.0)
        c = 0.7 * amplitude * rng.normal(size=6) / math.sqrt(2.0)
        sup = np.max(np.abs(SineSlope(c).grid(GRID)))
        return SineSlope(c * min(1.0, SUP_Q / sup))

    def make_input(self, i: int):
        exp_u = EXP_U if i % 4 == 3 else None
        L = self.L
        q = self.slope(i).grid(GRID)
        cfg = _condition(L, exp_u)
        p = L.forward_transform(L.Impedance(L.GridFunction(q)), cfg)
        return {"q": q, "p": p, "cfg": cfg}

    def run(self, inp):
        rep = self.L.invert_transform_detailed(inp["p"], inp["cfg"])
        return {"q": np.array(rep.q.f.values)}

    def check(self, inp, out) -> float:
        return _l2_distance(self.L, out["q"], inp["q"]) / SLOPE_TOL


class Fit(Workload):
    """Warm Gauss-Newton fits on a 1024-cell grid, three op kinds in turn."""

    name = "fit"
    traced_ops = 3
    cycle = 6  # two of each kind: the cost of a fit depends on its target

    def make_input(self, i: int):
        L = self.L
        rng = _rng(self.seed, i)
        x = np.linspace(0.0, 1.0, FIT_GRID + 1)
        kind = ("symmetric", "mixed", "impedance")[i % 3]
        if kind == "symmetric":
            # N = 5 even cosine modes from N = 5 eigenvalues.
            m = np.arange(1, 6)[:, None]
            pv = _unit(rng.normal(size=5)) @ (math.sqrt(2.0) * np.cos(2 * math.pi * m * x))
            data = L.solve_spectrum(L.SchrodingerProblem(L.Potential(L.GridFunction(pv))),
                                    INF, INF, 5)
            target = L.FitTarget.from_spectral_data(data, regime="symmetric-dirichlet")
            return {"kind": kind, "target": target, "p": pv}
        if kind == "mixed":
            # Dirichlet-Robin N = 3 in the full basis: 6 modes from 3 + 3 data.
            m = np.arange(1, 4)[:, None]
            basis = math.sqrt(2.0) * np.concatenate(
                [np.cos(2 * math.pi * m * x), np.sin(2 * math.pi * m * x)])
            pv = _unit(rng.normal(size=6)) @ basis
            data = L.solve_spectrum(L.SchrodingerProblem(L.Potential(L.GridFunction(pv))),
                                    INF, 1.0, 3)
            return {"kind": kind, "target": L.FitTarget.from_spectral_data(data), "p": pv}
        # Impedance fit with the exp perturbation: a slope in sin(2 pi m x),
        # m = 1, 2, keeps the potential even, so the symmetric regime applies.
        slope = SineSlope(0.3 * _unit(rng.normal(size=2)), freq=2)
        cfg = _condition(L, EXP_U)
        q = L.Impedance(L.GridFunction(slope.grid(FIT_GRID)))
        data = L.solve_spectrum(L.SchrodingerProblem(L.forward_transform(q, cfg)),
                                INF, INF, 5)
        target = L.FitTarget.from_spectral_data(data, regime="symmetric-dirichlet")
        return {"kind": kind, "target": target, "cfg": cfg, "q": slope.grid(FIT_GRID)}

    def run(self, inp):
        L = self.L
        if inp["kind"] == "impedance":
            rep = L.fit_impedance_detailed(inp["target"], inp["cfg"])
            return {"q": np.array(rep.q.f.values)}
        rep = L.fit_potential_detailed(inp["target"])
        return {"p": np.array(rep.potential.f.values)}

    def check(self, inp, out) -> float:
        if inp["kind"] == "impedance":
            return _l2_distance(self.L, out["q"], inp["q"]) / FIT_SLOPE_TOL
        return _l2_distance(self.L, out["p"], inp["p"]) / FIT_POTENTIAL_TOL


class CliCold(Workload):
    """Fresh-process CLI sessions: spectrum, transform, invert, export."""

    name = "cli_cold"
    traced_ops = 2
    OUTPUTS = ("spec.json", "p.csv", "q.csv", "inv.json", "ex_eigenvalues.csv",
               "ex_norming.csv", "ex_remainders.csv", "ex_trace.csv")

    def __init__(self, L, seed, workdir):
        super().__init__(L, seed, workdir)
        self.src = Path(L.__file__).resolve().parents[1]
        self.slope = SineSlope(0.5 * _unit(_rng(seed, 0).normal(size=4)))
        self.first = None

    def make_input(self, i: int):
        q = "fourier:[" + ",".join(repr(float(c)) for c in self.slope.c) + "]"
        u = "exp:{},{}".format(*EXP_U)
        return [
            ["spectrum", "--q", q, "--u", u, "--bc", "mixed", "--b", "1.0",
             "--N", "12", "--out", "spec.json"],
            ["transform", "--q", q, "--u", u, "--out", "p.csv"],
            ["invert", "--p", "p.csv", "--u", u, "--out", "q.csv",
             "--report", "inv.json"],
            ["export", "--data", "spec.json", "--q", q, "--u", u, "--lam", "10.0",
             "--prefix", "ex"],
        ]

    def run(self, commands):
        stale = [self.workdir / name for name in self.OUTPUTS]
        stale += [self.spans_file(k) for k in range(len(commands))]
        for path in stale:
            path.unlink(missing_ok=True)
        env = dict(os.environ, PYTHONPATH=str(self.src))
        for k, argv in enumerate(commands):
            if self.launcher is None:
                cmd = [sys.executable, "-m", "liouville.cli", *argv]
            else:
                cmd = [sys.executable, str(self.launcher), str(self.spans_file(k)),
                       *argv]
            proc = subprocess.run(cmd, cwd=self.workdir, env=env,
                                  stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                                  text=True)
            if proc.returncode != 0:
                raise RuntimeError(f"`liouville {argv[0]}` exited {proc.returncode}: "
                                   f"{proc.stderr.strip()[-300:]}")
        return {name: hashlib.sha256((self.workdir / name).read_bytes()).hexdigest()
                for name in self.OUTPUTS}

    def spans_file(self, k: int) -> Path:
        return self.workdir / f"spans-{k}.json"

    def check(self, inp, out) -> float:
        """Later sessions must match the first byte for byte; the first is
        checked against the oracle and the true slope."""
        if self.first is not None:
            return 0.0 if out == self.first else math.inf
        self.first = out
        L = self.L
        data = L.load_json(str(self.workdir / "spec.json"))
        ref = oracle.eigenvalues(self.slope.potential_plus_c0(EXP_U), 12, 1.0)
        eig = np.asarray(data["eigenvalues"])
        self.ref_rel_err = float(np.max(np.abs(eig - ref) / np.abs(ref)))
        q = L.read_grid_csv(str(self.workdir / "q.csv")).values
        return max(self.ref_rel_err / SPECTRA_TOL,
                   _l2_distance(L, q, self.slope.grid(q.size - 1)) / SLOPE_TOL)


WORKLOADS = {w.name: w for w in (Spectra, Fit, Inversion, CliCold)}
