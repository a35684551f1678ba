import json
import math

import numpy as np
import pytest

from nhsiegel.errors import FormDataError
from nhsiegel.formio import (
    load_form_package,
    load_points,
    package_from_dict,
    package_to_dict,
    save_form_package,
)
from nhsiegel.linalg import MultiIndex
from nhsiegel.samples import SAMPLE_BUILDERS, build_sample


def minimal_dict():
    return {
        "n": 1,
        "p": 0,
        "level": 1,
        "T_max": 10.0,
        "rep": {"j": 0, "k": 4},
        "growth": {"A": 10.0, "kappa": 1.0},
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

    def test_not_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json", encoding="utf-8")
        with pytest.raises(FormDataError, match="JSON"):
            load_form_package(path)

    @pytest.mark.parametrize(
        "value",
        [[[[0, -1], [1, 0]]], [[[1, 0], [0, 1]]], [], "x", {"0": [[1, 0], [0, 1]]}],
        ids=["inversion", "identity", "empty", "string", "object"],
    )
    def test_coset_reps_rejected(self, value):
        # Only the expansion at infinity is stored; a file with per-cusp
        # data must not be read as a level-one form.
        data = minimal_dict()
        data["coset_reps"] = value
        with pytest.raises(FormDataError, match="^coset_reps: per-cusp expansions are not supported$"):
            package_from_dict(data)

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


def _set(data, path, value):
    *head, last = path
    for key in head:
        data = data[key]
    data[last] = value


class TestJsonNumbers:
    """Every number of a form file is read once: a JSON integer where the
    format says integer, a JSON number elsewhere, never true/false or a
    string, and within int64 or float range."""

    @pytest.mark.parametrize(
        "path, value, named",
        [
            (("T_max",), "10", "T_max"),
            (("growth", "A"), "10", r"growth\.A"),
            (("growth", "kappa"), "1", r"growth\.kappa"),
            (("coefficients", 1, "value"), [["2.5", "-1"]], r"coefficients\[1\]: value"),
            (("n",), True, "n must be"),
            (("p",), True, "p must be"),
            (("level",), True, "level must be"),
            (("rep", "k"), True, r"rep\.j and rep\.k"),
            (("coefficients", 1, "beta"), {"1,1": True}, r"coefficients\[1\]: beta power"),
            (("coefficients", 1, "S"), [[True]], r"coefficients\[1\]: S"),
            (("coefficients", 1, "value"), [[True, 0]], r"coefficients\[1\]: value"),
            (("coefficients", 1, "value"), [[10**400, 0]], r"coefficients\[1\]: value"),
            (("T_max",), 10**400, "T_max"),
            (("growth", "A"), 10**400, r"growth\.A"),
            (("coefficients", 1, "S"), [[10**30]], r"coefficients\[1\]: S.*int64"),
        ],
        ids=[
            "string-T_max", "string-A", "string-kappa", "string-value",
            "true-n", "true-p", "true-level", "true-rep.k", "true-beta", "true-S", "true-value",
            "10^400-value", "10^400-T_max", "10^400-A", "10^30-S",
        ],
    )
    def test_rejected_with_field_named(self, path, value, named):
        data = minimal_dict()
        _set(data, path, value)
        with pytest.raises(FormDataError, match=named):
            package_from_dict(data)

    @pytest.mark.parametrize(
        "path, value, named",
        [
            (("coefficients", 0, "value"), [[1.0, 0.0], [2.0]], r"coefficients\[0\]: value.*rectangular"),
            (("coefficients", 0, "value"), [1.0, 0.0], r"coefficients\[0\]: value.*shape"),
            (("coefficients", 0, "beta"), [], r"coefficients\[0\]: beta must be an object"),
            (("rep", "j"), -1, "rep:"),
            (("n",), 0, "rep:"),
            (("level",), 0, "level"),
        ],
        ids=["ragged-value", "flat-value", "list-beta", "negative-j", "n-0", "level-0"],
    )
    def test_other_malformed_input_is_form_data_error(self, path, value, named):
        data = minimal_dict()
        _set(data, path, value)
        with pytest.raises(FormDataError, match=named):
            package_from_dict(data)

    @pytest.mark.parametrize(
        "key, value, message",
        [
            ("coefficients", 5, "coefficients must be a JSON array"),
            ("coefficients", {"a": 1}, "coefficients must be a JSON array"),
            # No longer a field: any value of the key is refused, naming it.
            ("gamma_test_set", 7, "gamma_test_set: the library chooses the gamma"),
            ("gamma_test_set", "x", "gamma_test_set: the library chooses the gamma"),
        ],
        ids=["coefficients-5", "coefficients-object", "gamma_test_set-7", "gamma_test_set-string"],
    )
    def test_list_fields_must_be_arrays(self, key, value, message):
        data = minimal_dict()
        data[key] = value
        with pytest.raises(FormDataError, match=f"^{message}"):
            package_from_dict(data)

    def test_value_pairs_kept_bit_for_bit(self):
        data = minimal_dict()
        data["coefficients"][1]["value"] = [[-0.0, 0.1]]
        vec = package_from_dict(data).expansion.coefficients[(MultiIndex(1, ()), ((1,),))]
        assert math.copysign(1.0, vec[0].real) == -1.0
        assert vec[0] == complex(-0.0, 0.1)
        assert package_to_dict(package_from_dict(data))["coefficients"][1]["value"] == [[-0.0, 0.1]]

    @pytest.mark.parametrize("name", sorted(SAMPLE_BUILDERS))
    def test_load_save_is_byte_identical(self, name, tmp_path):
        first, second = tmp_path / "first.json", tmp_path / "second.json"
        save_form_package(build_sample(name), first)
        save_form_package(load_form_package(first), second)
        assert second.read_bytes() == first.read_bytes()
        # Every stored pair comes back as complex(re, im), signs of zero included.
        stored = json.loads(first.read_text(encoding="utf-8"))["coefficients"]
        loaded = package_to_dict(load_form_package(first))["coefficients"]
        for want, got in zip(stored, loaded):
            want = np.array(want["value"], dtype=float)
            got = np.array(got["value"], dtype=float)
            assert want.view(np.int64).tolist() == got.view(np.int64).tolist()


class TestLoadPoints:
    def test_points_in_order(self, tmp_path):
        path = tmp_path / "points.json"
        path.write_text(json.dumps([{"X": [[0.25]], "Y": [[2]]}, {"X": [[0]], "Y": [[1.5]]}]))
        points = load_points(path)
        assert [float(z.X[0, 0]) for z in points] == [0.25, 0.0]
        assert [float(z.Y[0, 0]) for z in points] == [2.0, 1.5]

    @pytest.mark.parametrize(
        "text, named",
        [
            ('[{"X": [["0.1"]], "Y": [[1.0]]}]', r"points\[0\]: X must be numbers"),
            ('[{"X": [[0.1]], "Y": [[1.0]]}, {"X": [[0.1]], "Y": [[true]]}]', r"points\[1\]: Y"),
            ('[{"X": [[1%s]], "Y": [[1.0]]}]' % ("0" * 400), r"points\[0\]: X"),
            ('[{"X": [[1e400]], "Y": [[1.0]]}]', r"points\[0\]: X has non-finite"),
            ('[{"X": [[0.0]]}]', r"points\[0\]: need objects with X and Y"),
        ],
        ids=["string-X", "true-Y", "huge-int-X", "1e400-X", "no-Y"],
    )
    def test_malformed_record_named(self, tmp_path, text, named):
        path = tmp_path / "points.json"
        path.write_text(text)
        with pytest.raises(FormDataError, match=named):
            load_points(path)

    def test_not_a_list(self, tmp_path):
        path = tmp_path / "points.json"
        path.write_text(json.dumps({"X": [[0.0]], "Y": [[1.0]]}))
        with pytest.raises(FormDataError, match="JSON list"):
            load_points(path)

    def test_empty_list_names_the_file(self, tmp_path):
        path = tmp_path / "points.json"
        path.write_text("[]")
        with pytest.raises(FormDataError, match="points.json: the points file holds no points"):
            load_points(path)
