import json
import math

import numpy as np
import pytest

from nhsiegel.errors import FormDataError
from nhsiegel.formio import (
    load_form_package,
    package_from_dict,
    package_to_dict,
    save_form_package,
)
from nhsiegel.samples import SAMPLE_BUILDERS, build_sample


def minimal_dict():
    return {
        "n": 1,
        "p": 0,
        "level": 1,
        "T_max": 10.0,
        "rep": {"j": 0, "k": 4},
        "growth": {"A": 10.0, "kappa": 1.0},
        "gamma_test_set": [[[1, 1], [0, 1]]],
        "coefficients": [
            {"beta": {}, "S": [[0]], "value": [[1.0, 0.0]]},
            {"beta": {}, "S": [[1]], "value": [[2.5, -1.0]]},
        ],
    }


class TestRoundTrip:
    @pytest.mark.parametrize("name", sorted(SAMPLE_BUILDERS))
    def test_save_load_identity(self, name, tmp_path):
        package = build_sample(name)
        path = tmp_path / f"{name}.json"
        save_form_package(package, path)
        loaded = load_form_package(path)
        assert loaded.expansion == package.expansion
        assert loaded.growth_a == package.growth_a
        assert loaded.growth_kappa == package.growth_kappa
        assert len(loaded.gamma_test_set) == len(package.gamma_test_set)
        for a, b in zip(loaded.gamma_test_set, package.gamma_test_set):
            np.testing.assert_array_equal(a.mat, b.mat)

    def test_serialisation_is_deterministic(self, tmp_path):
        package = build_sample("e4")
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        save_form_package(package, p1)
        save_form_package(package, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_dict_round_trip(self):
        package = build_sample("sym2")
        again = package_from_dict(package_to_dict(package))
        assert again.expansion == package.expansion


class TestValidation:
    def test_happy_path(self):
        package = package_from_dict(minimal_dict())
        assert package.expansion.level == 1
        assert package.rep.dim == 1
        assert len(package.coset_reps) == 1  # identity default

    def test_missing_field(self):
        data = minimal_dict()
        del data["growth"]
        with pytest.raises(FormDataError, match="growth"):
            package_from_dict(data)

    def test_s_float_rejected(self):
        data = minimal_dict()
        data["coefficients"][0]["S"] = [[0.5]]
        with pytest.raises(FormDataError, match=r"coefficients\[0\].*integer"):
            package_from_dict(data)

    def test_s_not_psd_names_record(self):
        data = minimal_dict()
        data["coefficients"][1]["S"] = [[-2]]
        with pytest.raises(FormDataError, match=r"coefficients\[1\].*positive semidefinite"):
            package_from_dict(data)

    def test_bad_beta_key(self):
        data = minimal_dict()
        data["coefficients"][0]["beta"] = {"11": 1}
        with pytest.raises(FormDataError, match="beta key"):
            package_from_dict(data)

    def test_value_length(self):
        data = minimal_dict()
        data["coefficients"][0]["value"] = [[1.0, 0.0], [2.0, 0.0]]
        with pytest.raises(FormDataError, match="value"):
            package_from_dict(data)

    def test_gamma_not_integral(self):
        data = minimal_dict()
        data["gamma_test_set"] = [[[1.0, 0.5], [0.0, 1.0]]]
        with pytest.raises(FormDataError, match=r"gamma_test_set\[0\]"):
            package_from_dict(data)

    def test_gamma_not_symplectic(self):
        data = minimal_dict()
        data["gamma_test_set"] = [[[2, 0], [0, 2]]]
        with pytest.raises(FormDataError, match=r"gamma_test_set\[0\]"):
            package_from_dict(data)

    def test_not_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json", encoding="utf-8")
        with pytest.raises(FormDataError, match="JSON"):
            load_form_package(path)

    def test_coset_reps_parsed(self):
        data = minimal_dict()
        data["coset_reps"] = [[[0, -1], [1, 0]]]
        package = package_from_dict(data)
        assert len(package.coset_reps) == 1
        np.testing.assert_array_equal(package.coset_reps[0].mat, [[0, -1], [1, 0]])

    @pytest.mark.parametrize("field, value", [("j", 0.5), ("k", 4.0), ("k", "4"), ("j", None)])
    def test_rep_weights_must_be_integers(self, field, value):
        # int() would truncate 0.5 to 0 and load the wrong representation.
        data = minimal_dict()
        data["rep"][field] = value
        with pytest.raises(FormDataError, match="rep.j and rep.k must be integers"):
            package_from_dict(data)

    def test_non_finite_value_names_record(self, tmp_path):
        data = minimal_dict()
        data["coefficients"][1]["value"] = [[math.nan, 0.0]]
        with pytest.raises(FormDataError, match=r"coefficients\[1\].*non-finite"):
            package_from_dict(data)
        path = tmp_path / "nan.json"
        path.write_text(json.dumps(data), encoding="utf-8")
        with pytest.raises(FormDataError, match=r"coefficients\[1\]"):
            load_form_package(path)

    def test_level_scales_s(self):
        data = minimal_dict()
        data["level"] = 2
        data["coefficients"][1]["S"] = [[3]]  # S = 3/2
        package = package_from_dict(data)
        traces = sorted(float(np.trace(s)) for _, s, _ in package.expansion.terms())
        assert traces == [0.0, 1.5]

    def test_file_is_utf8_json(self, tmp_path):
        package = build_sample("e4")
        path = tmp_path / "e4.json"
        save_form_package(package, path)
        data = json.loads(path.read_text(encoding="utf-8"))
        assert data["n"] == 1
        assert data["rep"] == {"j": 0, "k": 4}
        assert all(isinstance(x, int) for row in data["coefficients"][0]["S"] for x in row)

    @pytest.mark.parametrize("name", ["e4", "sym2"])
    def test_loading_runs_one_eigensolve_per_term(self, name, tmp_path, monkeypatch):
        import nhsiegel.linalg

        path = tmp_path / f"{name}.json"
        save_form_package(build_sample(name), path)
        records = len(json.loads(path.read_text(encoding="utf-8"))["coefficients"])
        calls = []
        eigh = nhsiegel.linalg._eigh
        monkeypatch.setattr(nhsiegel.linalg, "_eigh", lambda a: calls.append(a) or eigh(a))
        load_form_package(path)
        assert len(calls) == records
