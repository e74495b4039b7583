"""End-to-end checks of the command line interface.

Every test drives ``liouville.cli.main`` against a scratch directory, then
inspects the exit code and the files the command wrote.  The SciPy-free
checks run in a child interpreter; the rest run in process.
"""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import liouville
from liouville import (ConditionU, DegenerateEigenfunctionError, FitError,
                       Impedance, InversionError, TargetError,
                       forward_transform)
from liouville.cli import (EXIT_FIT, EXIT_INVERSION, EXIT_OK, EXIT_PARSE,
                           EXIT_SOLVER, EXIT_VERIFY, _load_p, main)
from liouville.grid import GridFunction, trig_basis
from liouville.ode import resample_potential
from liouville.serialize import read_grid_csv, write_grid_csv

# Inline mode coefficients are taken in the orthonormal basis, so a unit
# amplitude sine needs a factor 1/sqrt(2).
SIN_2PI = "fourier:[0,0.7071067811865475]"
Q_SMALL = "fourier:[0,0.28284271247461906]"
Q_SMALL_AMPLITUDE = 0.4


def grid_x(n):
    return np.linspace(0.0, 1.0, n + 1)


@pytest.fixture(scope="session")
def dirichlet_run(tmp_path_factory):
    """Spectrum and transform outputs for 0.4 sin(2 pi x), computed once."""
    root = tmp_path_factory.mktemp("dirichlet")
    data = root / "data.json"
    pcsv = root / "p.csv"
    assert main(["spectrum", "--q", Q_SMALL, "--bc", "dirichlet", "--N", "6",
                 "--grid", "1024", "--out", str(data)]) == EXIT_OK
    assert main(["transform", "--q", Q_SMALL, "--grid", "1024",
                 "--out", str(pcsv)]) == EXIT_OK
    return data, pcsv


class TestSpectrum:
    def test_free_dirichlet_closed_form(self, tmp_path):
        out = tmp_path / "free.json"
        code = main(["spectrum", "--q", "zero", "--bc", "dirichlet",
                     "--N", "12", "--grid", "1024", "--out", str(out)])
        assert code == EXIT_OK
        doc = json.loads(out.read_text())
        assert doc["kind"] == "impedance"
        assert doc["a"] == "infinity" and doc["b"] == "infinity"
        lam = np.asarray(doc["eigenvalues"])
        exact = (math.pi * np.arange(1, 13)) ** 2
        assert np.max(np.abs(lam - exact) / exact) < 1e-9
        assert np.max(np.abs(doc["norming"])) < 1e-9

    def test_deterministic_output(self, tmp_path):
        runs = []
        for name in ("one.json", "two.json"):
            out = tmp_path / name
            code = main(["spectrum", "--q", SIN_2PI, "--bc", "mixed",
                         "--b", "0.4", "--N", "6", "--grid", "512",
                         "--out", str(out)])
            assert code == EXIT_OK
            runs.append(out.read_bytes())
        assert runs[0] == runs[1]

    def test_potential_problem_mixed(self, tmp_path):
        out = tmp_path / "mixed.json"
        code = main(["spectrum", "--p", "fourier:[0.3]", "--bc", "mixed",
                     "--b", "1.0", "--N", "5", "--grid", "512",
                     "--out", str(out)])
        assert code == EXIT_OK
        doc = json.loads(out.read_text())
        assert doc["kind"] == "schrodinger"
        assert doc["a"] == "infinity" and doc["b"] == 1.0
        lam = np.asarray(doc["eigenvalues"])
        assert lam.shape == (5,)
        assert np.all(np.diff(lam) > 0)

    def test_eigenvalues_export_as_series(self, tmp_path):
        out = tmp_path / "spec.json"
        code = main(["spectrum", "--q", "zero", "--bc", "dirichlet",
                     "--N", "5", "--grid", "512", "--out", str(out)])
        assert code == EXIT_OK
        prefix = str(tmp_path / "run")
        assert main(["export", "--data", str(out),
                     "--prefix", prefix]) == EXIT_OK
        lines = (tmp_path / "run_eigenvalues.csv").read_text() \
            .strip().splitlines()
        assert lines[0] == "n,value"
        assert len(lines) == 6
        # Dirichlet slots are labelled from 1.
        assert [row.split(",")[0] for row in lines[1:]] == \
            [str(n) for n in range(1, 6)]


class TestTransform:
    def test_sine_matches_closed_form(self, tmp_path):
        out = tmp_path / "p.csv"
        code = main(["transform", "--q", SIN_2PI, "--grid", "2048",
                     "--out", str(out)])
        assert code == EXIT_OK
        p = read_grid_csv(str(out))
        x = grid_x(2048)
        w = 2.0 * math.pi
        exact = w * np.cos(w * x) + np.sin(w * x) ** 2 - 0.5
        assert np.max(np.abs(p.values - exact)) < 1e-9

    def test_decaying_perturbation_accepted(self, tmp_path):
        out = tmp_path / "p.csv"
        code = main(["transform", "--q", "fourier:[0.1]",
                     "--u", "poly:[1.0,-0.5]", "--grid", "256",
                     "--out", str(out)])
        assert code == EXIT_OK

    def test_roundtrip_through_invert(self, tmp_path, dirichlet_run):
        _, pcsv = dirichlet_run
        qcsv = tmp_path / "q.csv"
        rep = tmp_path / "rep.json"
        code = main(["invert", "--p", str(pcsv), "--basis", "8",
                     "--grid", "1024", "--out", str(qcsv),
                     "--report", str(rep)])
        assert code == EXIT_OK
        q = read_grid_csv(str(qcsv))
        exact = Q_SMALL_AMPLITUDE * np.sin(2.0 * math.pi * grid_x(1024))
        assert np.max(np.abs(q.values - exact)) < 1e-6
        doc = json.loads(rep.read_text())
        assert doc["converged"] is True
        assert doc["restarted"] is False
        assert doc["full_residual"] < 1e-9
        assert doc["iterations"] == len(doc["residuals"]) - 1


class TestInvert:
    def test_off_span_failure_report(self, tmp_path):
        x = grid_x(1024)
        target = GridFunction(math.sqrt(2.0) * np.cos(12.0 * math.pi * x))
        pcsv = tmp_path / "p.csv"
        write_grid_csv(str(pcsv), target)
        rep = tmp_path / "rep.json"
        code = main(["invert", "--p", str(pcsv), "--basis", "8",
                     "--grid", "1024", "--out", str(tmp_path / "q.csv"),
                     "--report", str(rep)])
        assert code == EXIT_INVERSION
        doc = json.loads(rep.read_text())
        assert doc["converged"] is False
        # The off-span mass belongs to the residual P(q) - p, not the target.
        assert "the residual P(q) - p has l2 mass" in doc["error"]
        assert "outside the K=8 Galerkin span" in doc["error"]
        assert "the target has" not in doc["error"]
        assert len(doc["residuals"]) >= 1
        assert not (tmp_path / "q.csv").exists()


# Every grid size RunConfig accepts.
CLI_GRIDS = tuple(2 ** k for k in range(8, 15))


class TestResampledPotentials:
    """A valid potential stays valid when a level or a CSV moves it to another grid."""

    def test_coarse_transform_then_spectrum(self, tmp_path):
        pcsv, out = tmp_path / "p.csv", tmp_path / "s.json"
        assert main(["transform", "--q", "fourier:[0.5,0.5,0.5,0.5,0.5,0.5]",
                     "--grid", "256", "--out", str(pcsv)]) == EXIT_OK
        assert main(["spectrum", "--p", str(pcsv), "--grid", "256",
                     "--N", "8", "--out", str(out)]) == EXIT_OK

    @settings(max_examples=12, deadline=None)
    @given(coeffs=st.lists(st.floats(-1.0, 1.0), min_size=6, max_size=6)
           .filter(lambda c: np.linalg.norm(c) > 0.1),
           norm=st.floats(0.5, 3.0), exp_u=st.booleans(),
           n=st.sampled_from(CLI_GRIDS))
    @example(coeffs=[0.5] * 6, norm=math.sqrt(1.5), exp_u=False, n=256)
    def test_resampling_keeps_zero_mean(self, tmp_path_factory, coeffs, norm,
                                        exp_u, n):
        c = norm * np.asarray(coeffs) / np.linalg.norm(coeffs)
        cfg = ConditionU.exponential(0.5, 1.0) if exp_u else ConditionU.zero()
        p = forward_transform(Impedance(GridFunction(c @ trig_basis("sine", 6, n))),
                              cfg)
        assert resample_potential(p, 2 * n).n == 2 * n
        pcsv = tmp_path_factory.mktemp("p") / "p.csv"
        write_grid_csv(str(pcsv), p.f)
        for m in CLI_GRIDS:
            assert _load_p(str(pcsv), m).n == m


class TestFailureReports:
    """Each failure path of invert and fit writes its report and exit code."""

    @pytest.mark.parametrize("argv, patched, error, key, code, stage", [
        (["invert", "--p", "zero"], "invert_transform_detailed",
         InversionError("stalled", residuals=[2.0, 0.5]), "residuals",
         EXIT_INVERSION, "inversion"),
        (["fit", "--regime", "symmetric-dirichlet"], "fit_potential_detailed",
         FitError("stalled", residuals=[2.0, 0.5]), "fit_residuals", EXIT_FIT,
         "fit"),
        (["fit", "--regime", "symmetric-dirichlet"], "fit_potential_detailed",
         TargetError("inadmissible"), "fit_residuals", EXIT_FIT, "fit"),
    ], ids=["invert", "fit", "fit-target"])
    def test_report_and_exit_code(self, argv, patched, error, key, code, stage,
                                  tmp_path, dirichlet_run, monkeypatch, capsys):
        def fail(*args, **kwargs):
            raise error

        monkeypatch.setattr(f"liouville.cli.{patched}", fail)
        data, _ = dirichlet_run
        rep = tmp_path / "rep.json"
        if argv[0] == "fit":
            argv = argv + ["--data", str(data)]
        assert main(argv + ["--grid", "1024", "--out", str(tmp_path / "x.csv"),
                            "--report", str(rep)]) == code
        assert json.loads(rep.read_text()) == {
            "converged": False, "error": str(error),
            key: list(getattr(error, "residuals", []))}
        assert capsys.readouterr().err == f"{stage} failed: {error}\n"
        assert not (tmp_path / "x.csv").exists()


class TestVerify:
    def test_zero_impedance_passes(self, tmp_path):
        out = tmp_path / "report.json"
        code = main(["verify", "--grid", "1024", "--N", "6",
                     "--out", str(out)])
        assert code == EXIT_OK
        doc = json.loads(out.read_text())
        assert doc["all_passed"] is True
        assert doc["N"] == 6 and doc["grid"] == 1024
        names = [c["name"] for c in doc["checks"]]
        assert "estimate:pe1_identity" in names
        assert "frechet:consistency" in names
        assert all(c["passed"] for c in doc["checks"])

    def test_mixed_with_decay_passes(self, tmp_path):
        out = tmp_path / "report.json"
        code = main(["verify", "--q", SIN_2PI, "--bc", "mixed", "--b", "1.0",
                     "--u", "exp:1.0,1.0", "--grid", "1024", "--N", "8",
                     "--out", str(out)])
        assert code == EXIT_OK
        doc = json.loads(out.read_text())
        names = [c["name"] for c in doc["checks"]]
        assert "identity:b" in names

    def test_default_report_path(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        code = main(["verify", "--grid", "512", "--N", "4"])
        assert code == EXIT_OK
        assert (tmp_path / "verify-report.json").exists()

    def test_corrupted_data_fails(self, tmp_path, dirichlet_run, capsys):
        data, _ = dirichlet_run
        doc = json.loads(data.read_text())
        doc["eigenvalues"][0], doc["eigenvalues"][1] = \
            doc["eigenvalues"][1], doc["eigenvalues"][0]
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        out = tmp_path / "report.json"
        code = main(["verify", "--grid", "512", "--N", "4",
                     "--data", str(bad), "--out", str(out)])
        assert code == EXIT_VERIFY
        report = json.loads(out.read_text())
        assert report["all_passed"] is False
        ordering = [c for c in report["checks"]
                    if c["name"] == "file:ordering"]
        assert ordering and ordering[0]["passed"] is False
        assert "FAIL" in capsys.readouterr().out

    def test_seeded_reports_identical(self, tmp_path):
        runs = []
        for name in ("one.json", "two.json"):
            out = tmp_path / name
            code = main(["verify", "--grid", "512", "--N", "4", "--seed", "3",
                         "--out", str(out)])
            assert code == EXIT_OK
            runs.append(out.read_bytes())
        assert runs[0] == runs[1]


class TestFit:
    def test_needs_target_or_data(self, tmp_path):
        code = main(["fit", "--out", str(tmp_path / "x.csv")])
        assert code == EXIT_PARSE

    def test_symmetric_potential_fit(self, tmp_path, dirichlet_run):
        data, pcsv = dirichlet_run
        out = tmp_path / "fit.csv"
        rep = tmp_path / "rep.json"
        code = main(["fit", "--data", str(data), "--regime",
                     "symmetric-dirichlet", "--grid", "1024",
                     "--out", str(out), "--report", str(rep)])
        assert code == EXIT_OK
        fitted = read_grid_csv(str(out))
        exact = read_grid_csv(str(pcsv))
        assert np.max(np.abs(fitted.values - exact.values)) < 1e-4
        doc = json.loads(rep.read_text())
        assert doc["converged"] is True
        assert doc["kind"] == "potential"
        assert doc["fit_iterations"] == len(doc["fit_residuals"]) - 1

    def test_impedance_fit_roundtrip(self, tmp_path, dirichlet_run):
        data, _ = dirichlet_run
        out = tmp_path / "q.csv"
        rep = tmp_path / "rep.json"
        code = main(["fit", "--data", str(data), "--impedance", "--regime",
                     "symmetric-dirichlet", "--grid", "1024",
                     "--out", str(out), "--report", str(rep)])
        assert code == EXIT_OK
        q = read_grid_csv(str(out))
        exact = Q_SMALL_AMPLITUDE * np.sin(2.0 * math.pi * grid_x(1024))
        assert np.max(np.abs(q.values - exact)) < 1e-3
        doc = json.loads(rep.read_text())
        assert doc["kind"] == "impedance"
        assert doc["converged"] is True
        assert sorted(doc) == ["converged", "fit_iterations", "fit_residuals",
                               "kind"]

    def test_impedance_fit_meets_tol(self, tmp_path):
        # Gauss-Newton on the slope itself holds the fit to tol.  A potential
        # fit followed by a Galerkin inversion missed tol on this target by
        # the inversion's off-span residual and exited 4.
        data = tmp_path / "d.json"
        assert main(["spectrum", "--q", "fourier:[0.3,-0.2,0.1,0.05]",
                     "--bc", "dirichlet", "--N", "6", "--grid", "1024",
                     "--out", str(data)]) == EXIT_OK
        rep = tmp_path / "rep.json"
        code = main(["fit", "--data", str(data), "--regime",
                     "symmetric-dirichlet", "--impedance", "--grid", "1024",
                     "--tol", "1e-9", "--out", str(tmp_path / "q.csv"),
                     "--report", str(rep)])
        assert code == EXIT_OK
        assert json.loads(rep.read_text())["fit_residuals"][-1] <= 1e-9

    def test_inadmissible_target_exit_code(self, tmp_path, dirichlet_run):
        data, _ = dirichlet_run
        doc = json.loads(data.read_text())
        doc["remainders"][0] += 100.0
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        rep = tmp_path / "rep.json"
        code = main(["fit", "--data", str(bad), "--regime",
                     "symmetric-dirichlet", "--grid", "1024",
                     "--out", str(tmp_path / "x.csv"), "--report", str(rep)])
        assert code == EXIT_FIT
        failure = json.loads(rep.read_text())
        assert failure["converged"] is False


class TestExport:
    def test_series_files(self, tmp_path, dirichlet_run):
        data, _ = dirichlet_run
        prefix = str(tmp_path / "run")
        code = main(["export", "--data", str(data), "--prefix", prefix])
        assert code == EXIT_OK
        for name in ("eigenvalues", "norming", "remainders"):
            lines = (tmp_path / f"run_{name}.csv").read_text() \
                .strip().splitlines()
            assert lines[0] == "n,value"
            assert len(lines) == 7

    def test_trace_file(self, tmp_path):
        prefix = str(tmp_path / "run")
        code = main(["export", "--q", "zero", "--lam", "5.0",
                     "--grid", "1024", "--prefix", prefix])
        assert code == EXIT_OK
        trace = read_grid_csv(f"{prefix}_trace.csv")
        s = math.sqrt(5.0)
        exact = np.sin(s * grid_x(1024)) / s
        assert np.max(np.abs(trace.values - exact)) < 1e-8

    def test_trace_needs_lam(self, tmp_path):
        code = main(["export", "--q", "zero", "--grid", "512",
                     "--prefix", str(tmp_path / "run")])
        assert code == EXIT_PARSE

    def test_nothing_to_export(self, tmp_path):
        code = main(["export", "--prefix", str(tmp_path / "run")])
        assert code == EXIT_PARSE


class TestErrorPaths:
    def test_missing_input_file(self, tmp_path):
        code = main(["spectrum", "--q", str(tmp_path / "absent.json"),
                     "--out", str(tmp_path / "x.json")])
        assert code == EXIT_PARSE

    def test_grid_not_power_of_two(self, tmp_path):
        code = main(["spectrum", "--q", "zero", "--grid", "500",
                     "--out", str(tmp_path / "x.json")])
        assert code == EXIT_PARSE

    def test_ladder_size_out_of_range(self, tmp_path):
        code = main(["spectrum", "--q", "zero", "--N", "100",
                     "--out", str(tmp_path / "x.json")])
        assert code == EXIT_PARSE

    def test_unknown_flag(self, tmp_path):
        code = main(["spectrum", "--q", "zero", "--nonsense",
                     "--out", str(tmp_path / "x.json")])
        assert code == EXIT_PARSE

    def test_mixed_takes_no_left_value(self, tmp_path):
        code = main(["spectrum", "--q", "zero", "--bc", "mixed", "--b", "1.0",
                     "--a", "0.5", "--out", str(tmp_path / "x.json")])
        assert code == EXIT_PARSE

    def test_reflected_orientation_rejected(self, tmp_path):
        code = main(["spectrum", "--q", "zero", "--a", "1.0",
                     "--out", str(tmp_path / "x.json")])
        assert code == EXIT_PARSE

    @pytest.mark.parametrize("ends", [
        ["--a=-inf", "--b", "1"], ["--bc", "mixed", "--b", "nan"],
        ["--bc", "mixed", "--b=-inf"]])
    def test_minus_infinity_and_nan_ends_refused(self, tmp_path, ends):
        # Only +inf is a Dirichlet end; -inf and NaN are argument errors,
        # refused before any solve or write.
        out = tmp_path / "x.json"
        code = main(["spectrum", "--p", "zero", *ends, "--grid", "256",
                     "--out", str(out)])
        assert code == EXIT_PARSE
        assert not out.exists()

    @pytest.mark.parametrize("command", ["invert", "fit"])
    @pytest.mark.parametrize("tol", ["inf", "nan", "0", "-1e-9"])
    def test_tolerance_must_be_finite_and_positive(self, tmp_path, command,
                                                   tol, dirichlet_run):
        # An infinite tolerance would accept the zero start after no step.
        data, pcsv = dirichlet_run
        source = ["--p", str(pcsv)] if command == "invert" \
            else ["--data", str(data)]
        out = tmp_path / "out.csv"
        code = main([command, *source, "--grid", "1024", f"--tol={tol}",
                     "--out", str(out)])
        assert code == EXIT_PARSE == 2
        assert not out.exists()

    def test_fit_takes_one_of_target_and_data(self, tmp_path):
        # Both files are valid, so only the flag pair is refused.
        data, target = tmp_path / "d.json", tmp_path / "t.json"
        assert main(["spectrum", "--p", "zero", "--bc", "mixed", "--b", "1",
                     "--N", "3", "--grid", "256", "--out", str(data)]) \
            == EXIT_OK
        doc = json.loads(data.read_text())
        target.write_text(json.dumps({
            "regime": "mixed", "b": 1.0, "remainders": doc["remainders"],
            "norming": [0.0, 0.0, 0.0]}))
        out = tmp_path / "fit.csv"
        code = main(["fit", "--target", str(target), "--data", str(data),
                     "--grid", "256", "--out", str(out)])
        assert code == EXIT_PARSE
        assert not out.exists()

    def test_fit_regime_must_match_data(self, tmp_path):
        data = tmp_path / "g.json"
        assert main(["spectrum", "--p", "fourier:[0.3,-0.2,0.1,0.05]",
                     "--bc", "generic", "--a", "1", "--b", "-0.5", "--N", "4",
                     "--grid", "256", "--out", str(data)]) == EXIT_OK
        code = main(["fit", "--data", str(data), "--regime",
                     "symmetric-dirichlet", "--grid", "256",
                     "--out", str(tmp_path / "fit.csv")])
        assert code == EXIT_FIT

    def test_overflow_maps_to_solver_exit(self, tmp_path):
        code = main(["spectrum", "--q", "fourier:[1414.2]", "--grid", "512",
                     "--out", str(tmp_path / "x.json")])
        assert code == EXIT_SOLVER

    def test_vanished_norming_maps_to_solver_exit(self, tmp_path, capsys,
                                                  monkeypatch):
        # A norming constant that is not finite cannot go to JSON, so the
        # solve fails as a solver error.
        def vanished(*args, **kwargs):
            raise DegenerateEigenfunctionError("a norming constant is not "
                                               "finite")

        monkeypatch.setattr("liouville.cli.solve_spectrum", vanished)
        out = tmp_path / "x.json"
        code = main(["spectrum", "--p", "fourier:[0.3,-0.2,0.1,0.05]",
                     "--bc", "generic", "--a", "1", "--b", "3", "--N", "8",
                     "--grid", "1024", "--out", str(out)])
        assert code == EXIT_SOLVER
        assert "solver error:" in capsys.readouterr().err
        assert not out.exists()

    def test_deep_robin_left_end_writes_finite_norming(self, tmp_path):
        # The state near -a**2 of a Robin left end a = -20 is read from the
        # right end, where its shot grows.
        out = tmp_path / "x.json"
        code = main(["spectrum", "--p", "fourier:[0.3,-0.2,0.1,0.05]",
                     "--bc", "generic", "--a", "-20", "--b", "3", "--N", "8",
                     "--grid", "1024", "--out", str(out)])
        assert code == EXIT_OK
        norming = json.loads(out.read_text())["norming"]
        assert len(norming) == 8 and all(map(math.isfinite, norming))

    @pytest.mark.parametrize("argv", [
        ["verify", "--emit-plot", "x.csv"],
        ["export", "--prefix", "p", "--emit-plot", "x.csv"],
        ["export", "--prefix", "p", "--out", "x.csv"],
        ["export", "--prefix", "p", "--tol", "1e-6"],
        ["transform", "--q", "zero", "--tol", "1e-6", "--out", "p.csv"],
        ["transform", "--q", "zero", "--seed", "1", "--out", "p.csv"],
        ["spectrum", "--q", "zero", "--jobs", "2", "--out", "x.json"],
        ["fit", "--regime", "symmetric-dirichlet", "--impedance",
         "--grid", "1024", "--out", "q.csv", "--basis", "6"],
        ["spectrum", "--q", "zero", "--out", "x.json", "--emit-plot", "x.csv"],
        ["transform", "--q", "zero", "--out", "p.csv", "--emit-plot", "x.csv"],
        ["invert", "--grid", "1024", "--basis", "8", "--out", "q.csv",
         "--emit-plot", "x.csv"],
        ["fit", "--regime", "symmetric-dirichlet", "--impedance",
         "--grid", "1024", "--out", "q.csv", "--emit-plot", "x.csv"],
        ["spectrum", "--q", "zero", "--tol", "1e-6", "--out", "x.json"],
    ])
    def test_unread_flags_rejected(self, argv, tmp_path, monkeypatch, capsys,
                                   dirichlet_run):
        # Each command runs cleanly without the trailing flag; with it the
        # parser refuses, before any file is read or written.
        data, pcsv = dirichlet_run
        if argv[0] in ("export", "fit"):
            argv = argv[:1] + ["--data", str(data)] + argv[1:]
        if argv[0] == "invert":
            argv = argv[:1] + ["--p", str(pcsv)] + argv[1:]
        monkeypatch.chdir(tmp_path)
        assert main(argv) == EXIT_PARSE
        assert "unrecognized arguments" in capsys.readouterr().err
        assert not any(tmp_path.iterdir())

    def test_help_exits_cleanly(self, capsys):
        assert main(["--help"]) == EXIT_OK
        assert "spectrum" in capsys.readouterr().out


SCIPY_BLOCKED = """
import json, sys
sys.modules["scipy"] = None
import numpy as np
from liouville.cli import main
from liouville.grid import GridFunction, resample

q, u = "fourier:[0.3,-0.2,0.1,0.05]", "exp:0.5,1.0"
codes = [main(argv) for argv in (
    ["spectrum", "--q", q, "--u", u, "--bc", "mixed", "--b", "1.0",
     "--N", "12", "--out", "spec.json"],
    ["transform", "--q", q, "--u", u, "--out", "p.csv"],
    ["invert", "--p", "p.csv", "--u", u, "--out", "q.csv",
     "--report", "inv.json"],
    ["export", "--data", "spec.json", "--q", q, "--u", u, "--lam", "10.0",
     "--prefix", "ex"],
)]
resample(GridFunction(np.sin(np.linspace(0.0, 3.0, 1001))), 2048)
print(json.dumps(codes))
"""

SOLVE_THEN_LIST = """
import json, math, sys
import numpy as np
from liouville import (ConditionU, GridFunction, Impedance, ImpedanceProblem,
                       solve_spectrum)

q = 0.4 * np.sin(2 * np.pi * np.linspace(0.0, 1.0, 1025))
prob = ImpedanceProblem(Impedance(GridFunction(q)),
                        ConditionU.exponential(0.5, 1.0))
solve_spectrum(prob, math.inf, 1.0, 6)
print(json.dumps(sorted(m for m in sys.modules if m.split(".")[0] == "scipy")))
"""


def run_child(script, cwd):
    env = dict(os.environ,
               PYTHONPATH=str(Path(liouville.__file__).resolve().parents[1]))
    proc = subprocess.run([sys.executable, "-c", script], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


class TestWithoutScipy:
    def test_cli_runs_with_scipy_blocked(self, tmp_path):
        assert run_child(SCIPY_BLOCKED, tmp_path) == [EXIT_OK] * 4

    def test_solve_leaves_scipy_unimported(self, tmp_path):
        assert run_child(SOLVE_THEN_LIST, tmp_path) == []
