"""File formats: canonical JSON, grid CSV, and dataclass dict mappings."""

import json
import math
import os

import numpy as np
import pytest

from liouville import (INF, ConditionU, DecayTerm, FitTarget, GridFunction,
                       Impedance, Potential, SchrodingerProblem, TargetError,
                       atomic_write_text, condition_from_dict,
                       condition_to_dict, dump_json, forward_transform,
                       invert_transform_detailed, inversion_report_to_dict,
                       json_text, load_json, read_grid_csv, solve_spectrum,
                       spectral_from_dict, spectral_to_dict, target_from_dict,
                       target_to_dict, write_grid_csv)


def small_data(a=INF, b=1.0, N=4):
    free = SchrodingerProblem(Potential(GridFunction.zeros(1024)))
    return solve_spectrum(free, a, b, N)


class TestCanonicalJson:
    def test_sorted_and_stable(self):
        text = json_text({"b": 1.0, "a": [1, 2], "c": {"y": 2.0, "x": None}})
        assert text == json_text({"c": {"x": None, "y": 2.0},
                                  "a": [1, 2], "b": 1.0})
        assert text.index('"a"') < text.index('"b"') < text.index('"c"')
        assert text.endswith("\n")

    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            json_text({"v": float("nan")})

    def test_dump_load_roundtrip(self, tmp_path):
        path = str(tmp_path / "blob.json")
        obj = {"name": "case", "values": [0.1, 2.5e-17, -3.0]}
        dump_json(obj, path)
        assert load_json(path) == obj
        assert json_text(load_json(path)) == json_text(obj)


class TestAtomicWrite:
    def test_writes_and_replaces(self, tmp_path):
        path = str(tmp_path / "out.txt")
        atomic_write_text(path, "first")
        atomic_write_text(path, "second")
        with open(path) as fh:
            assert fh.read() == "second"
        assert [p for p in os.listdir(tmp_path)
                if p.startswith(".tmp-")] == []

    def test_failure_leaves_no_temp(self, tmp_path):
        path = str(tmp_path / "out.txt")
        with pytest.raises(TypeError):
            atomic_write_text(path, 12345)
        assert not os.path.exists(path)
        assert [p for p in os.listdir(tmp_path)
                if p.startswith(".tmp-")] == []


class TestGridCsv:
    def test_roundtrip_is_exact(self, tmp_path):
        path = str(tmp_path / "f.csv")
        f = GridFunction.from_callable(lambda x: np.sin(2 * np.pi * x)
                                       + 0.1 * x, 256)
        write_grid_csv(path, f)
        g = read_grid_csv(path)
        assert g.n == f.n
        assert np.max(np.abs(g.values - f.values)) < 1e-14

    def test_header_is_validated(self, tmp_path):
        path = str(tmp_path / "bad.csv")
        with open(path, "w") as fh:
            fh.write("t,value\n0.0,1.0\n1.0,2.0\n")
        with pytest.raises(ValueError):
            read_grid_csv(path)

    def test_partition_is_validated(self, tmp_path):
        path = str(tmp_path / "bad.csv")
        with open(path, "w") as fh:
            fh.write("x,value\n0.0,1.0\n0.7,2.0\n1.0,3.0\n")
        with pytest.raises(ValueError):
            read_grid_csv(path)

    def test_shape_is_validated(self, tmp_path):
        path = str(tmp_path / "bad.csv")
        with open(path, "w") as fh:
            fh.write("x,value\n0.0,1.0\n")
        with pytest.raises(ValueError):
            read_grid_csv(path)


class TestSpectralDict:
    def test_roundtrip_recovers_everything(self):
        data = small_data()
        d = spectral_to_dict(data)
        back = spectral_from_dict(json.loads(json_text(d)))
        assert back.kind == data.kind
        assert back.a == data.a and back.b == data.b
        assert np.array_equal(back.eigenvalues, data.eigenvalues)
        assert np.array_equal(back.norming, data.norming)
        assert np.array_equal(back.remainders.entries,
                              data.remainders.entries)
        assert np.max(np.abs(back.norming_deviation.entries
                             - data.norming_deviation.entries)) < 1e-15

    def test_infinite_boundaries_spelled_out(self):
        data = small_data(a=INF, b=INF)
        d = spectral_to_dict(data)
        assert d["a"] == "infinity" and d["b"] == "infinity"
        assert spectral_from_dict(d).a == INF

    @pytest.mark.parametrize("edit", [
        pytest.param({"eigenvalues": slice(0, 3)}, id="short-eigenvalues"),
        pytest.param({"norming": slice(0, 5)}, id="short-norming"),
        pytest.param({"remainders": slice(0, 0)}, id="empty-remainders"),
        pytest.param({"N": 9}, id="N-too-large"),
        pytest.param({"N": 0}, id="N-zero")])
    def test_rows_must_hold_N_entries(self, edit):
        d = spectral_to_dict(small_data(N=6))
        for key, change in edit.items():
            d[key] = d[key][change] if isinstance(change, slice) else change
        with pytest.raises(ValueError, match="N >= 1 entries"):
            spectral_from_dict(d)

    def test_deviation_recomputed_from_norming(self):
        data = small_data(b=0.5)
        d = spectral_to_dict(data)
        assert "norming_deviation" not in d
        back = spectral_from_dict(d)
        assert back.norming_deviation.entries.size == data.N


class TestTargetDict:
    def test_roundtrip(self):
        t = FitTarget.from_spectral_data(small_data(b=1.0))
        back = target_from_dict(json.loads(json_text(target_to_dict(t))))
        assert back.regime == "mixed"
        assert back.b == 1.0
        assert np.array_equal(back.remainders, t.remainders)
        assert np.array_equal(back.norming, t.norming)

    def test_symmetric_norming_stays_absent(self):
        t = FitTarget(regime="symmetric-dirichlet", remainders=np.zeros(3))
        d = target_to_dict(t)
        assert d["norming"] is None
        assert target_from_dict(d).norming is None

    def test_invalid_payload_raises_target_error(self):
        t = FitTarget(regime="symmetric-dirichlet",
                      remainders=np.array([0.0, 0.1, 0.2]))
        d = target_to_dict(t)
        d["remainders"][0] = 1e4
        with pytest.raises(TargetError):
            target_from_dict(d)


class TestConditionDict:
    def test_roundtrip(self):
        cfg = ConditionU(u1=(0.0, 0.3), u2=DecayTerm("exp", E=0.7, beta=2.0))
        back = condition_from_dict(json.loads(json_text(
            condition_to_dict(cfg))))
        assert back.u1 == cfg.u1
        assert back.u2.kind == "exp"
        assert back.u2.E == 0.7 and back.u2.beta == 2.0

    def test_defaults_give_zero(self):
        assert condition_from_dict({}).is_zero

    def test_poly_coeffs_survive(self):
        cfg = ConditionU(u2=DecayTerm("poly", coeffs=(1.0, -0.5)))
        back = condition_from_dict(condition_to_dict(cfg))
        assert back.u2.coeffs == (1.0, -0.5)


class TestInversionReportDict:
    def test_report_fields(self):
        q_star = GridFunction.from_callable(
            lambda x: 0.4 * np.sin(2 * np.pi * x), 1024)
        report = invert_transform_detailed(
            forward_transform(Impedance(q_star)))
        d = inversion_report_to_dict(report)
        assert d["converged"] is True
        assert d["iterations"] == len(d["residuals"]) - 1
        text = json_text(d)
        assert json.loads(text)["full_residual"] == report.full_residual
