import gc
import json
import math
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest

from nhsiegel import forms
from nhsiegel.cli import entry, main, parse_point
from nhsiegel.errors import FormDataError
from nhsiegel.formio import load_form_package, package_to_dict, save_form_package
from nhsiegel.samples import build_sample, divisor_power_sum
from nhsiegel.symplectic import SymplecticMatrix, inversion


@pytest.fixture(scope="module")
def e4_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("forms") / "e4.json"
    save_form_package(build_sample("e4"), path)
    return path


def _edited(path, tmp_path, **fields):
    """A copy of the form file at ``path`` with top-level ``fields`` replaced."""
    data = json.loads(path.read_text(encoding="utf-8"))
    data.update(fields)
    out = tmp_path / "edited.json"
    out.write_text(json.dumps(data), encoding="utf-8")
    return out


@pytest.fixture(scope="module")
def constant_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("forms") / "constant.json"
    save_form_package(build_sample("constant"), path)
    return path


@pytest.fixture(scope="module")
def zero_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("forms") / "zero.json"
    save_form_package(build_sample("zero"), path)
    return path


class TestParsePoint:
    def test_degree_one(self):
        z = parse_point("0.3;0.2")
        assert z.n == 1
        assert z.X[0, 0] == 0.3
        assert z.Y[0, 0] == 0.2

    def test_degree_two(self):
        z = parse_point("0,0.5,0;5,0,7")
        assert z.n == 2
        np.testing.assert_allclose(z.X, [[0.0, 0.5], [0.5, 0.0]])
        np.testing.assert_allclose(z.Y, [[5.0, 0.0], [0.0, 7.0]])

    def test_bad_counts(self):
        with pytest.raises(FormDataError):
            parse_point("1,2;3,4")
        with pytest.raises(FormDataError):
            parse_point("1;2;3")

    def test_nonpositive_y_is_input_error(self):
        with pytest.raises(FormDataError):
            parse_point("0;-1")

    def test_cli_maps_bad_point_to_exit_2(self, capsys):
        assert main(["reduce", "--z", "0;-1"]) == 2
        assert "input error" in capsys.readouterr().err

    def test_bad_y_message(self, e4_file, capsys):
        assert main(["eval", "--form", str(e4_file), "--z", "0;-1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "input error: point '0;-1': imaginary part is not positive definite"
            " (min eigenvalue -1.000e+00)\n"
        )

    @pytest.mark.parametrize(
        "z, message",
        [
            ("a;1", "point 'a;1' has non-numeric entries"),
            ("0,0;1", "point '0,0;1': X and Y must have the same entry count"),
        ],
        ids=["non-numeric-entries", "entry-count-mismatch"],
    )
    def test_rejected_point_is_named(self, e4_file, capsys, z, message):
        assert main(["eval", "--form", str(e4_file), "--z", z]) == 2
        assert capsys.readouterr() == ("", f"input error: {message}\n")

    def test_bad_y_in_points_file_message(self, e4_file, tmp_path, capsys):
        pts = tmp_path / "bad_y.json"
        pts.write_text(json.dumps([{"X": [[0.0]], "Y": [[-1.0]]}]), encoding="utf-8")
        assert main(["eval", "--form", str(e4_file), "--points", str(pts)]) == 2
        assert capsys.readouterr().err == (
            "input error: points[0]: imaginary part is not positive definite"
            " (min eigenvalue -1.000e+00)\n"
        )


class TestSample:
    def test_writes_round_trippable_file(self, tmp_path):
        out = tmp_path / "e6.json"
        assert main(["sample", "--name", "e6", "--out", str(out)]) == 0
        assert package_to_dict(load_form_package(out)) == package_to_dict(build_sample("e6"))

    def test_requires_out(self):
        assert main(["sample", "--name", "e6"]) == 2


class TestEval:
    def test_constant_value(self, tmp_path, capsys):
        path = tmp_path / "const.json"
        save_form_package(build_sample("constant"), path)
        rc = main(["eval", "--form", str(path), "--z", "0;1"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["results"][0]["value"] == [[1.0, 0.0]]

    def test_e4_at_i_matches_oracle(self, e4_file, capsys):
        rc = main(["eval", "--form", str(e4_file), "--z", "0;1"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        value = payload["results"][0]["value"][0]
        assert value[0] == pytest.approx(1.4557628922687093, abs=1e-10)
        assert value[1] == pytest.approx(0.0, abs=1e-12)
        assert payload["results"][0]["phi"] == pytest.approx(1.4557628922687093, abs=1e-10)

    def test_points_file(self, e4_file, tmp_path, capsys):
        pts = tmp_path / "points.json"
        pts.write_text(json.dumps([{"X": [[0.0]], "Y": [[2.0]]}]), encoding="utf-8")
        rc = main(["eval", "--form", str(e4_file), "--points", str(pts)])
        assert rc == 0
        assert len(json.loads(capsys.readouterr().out)["results"]) == 1

    def test_no_points_is_input_error(self, e4_file, capsys):
        assert main(["eval", "--form", str(e4_file)]) == 2

    def test_malformed_file_names_record(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        data = {
            "n": 1,
            "p": 0,
            "level": 1,
            "T_max": 5.0,
            "rep": {"j": 0, "k": 4},
            "growth": {"A": 10.0, "kappa": 1.0},
            "coefficients": [{"beta": {}, "S": [[-1]], "value": [[1.0, 0.0]]}],
        }
        path.write_text(json.dumps(data), encoding="utf-8")
        rc = main(["eval", "--form", str(path), "--z", "0;1"])
        assert rc == 2
        err = capsys.readouterr().err
        assert "coefficients[0]" in err

    def test_csv_format(self, e4_file, tmp_path):
        out = tmp_path / "vals.csv"
        rc = main(
            ["eval", "--form", str(e4_file), "--z", "0;1", "--out", str(out), "--format", "csv"]
        )
        assert rc == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0].startswith("x11,y11,re_0")
        assert len(lines) == 2

    def test_tmax_override(self, e4_file, tmp_path, capsys):
        # A file whose T_max is 0 keeps only the constant term.
        path = _edited(e4_file, tmp_path, T_max=0)
        rc = main(["eval", "--form", str(path), "--z", "0;1"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["results"][0]["value"] == [[1.0, 0.0]]

    def test_overflowing_truncation_level_is_input_error(self, e4_file, tmp_path, capsys):
        # 2 * 1e308 is inf: no last level exists below such a bound.
        path = _edited(e4_file, tmp_path, level=2, T_max=1e308)
        assert main(["eval", "--form", str(path), "--z", "0;1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "truncation bound 1e+308 overflows at level 2" in captured.err


class TestReduce:
    def test_gauss_example(self, capsys):
        rc = main(["reduce", "--z", "0.3;0.2"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        rec = payload["results"][0]
        x = rec["z_red"]["X"][0][0]
        y = rec["z_red"]["Y"][0][0]
        assert abs(x) <= 0.5 + 1e-9
        assert x * x + y * y >= 1.0 - 1e-9
        assert rec["in_V_delta"] is True

    def test_identity_on_reduced(self, capsys):
        rc = main(["reduce", "--z", "0;1"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        np.testing.assert_array_equal(payload["results"][0]["gamma"], [[1, 0], [0, 1]])

    def test_degree_two(self, capsys):
        rc = main(["reduce", "--z", "1.3,0.4,-2.0;5,0,7"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        rec = payload["results"][0]
        assert rec["in_V_delta"] is True
        assert rec["min_im_eigenvalue"] >= 0.4 - 1e-9

    def test_no_point(self):
        assert main(["reduce"]) == 2

    @pytest.mark.parametrize("z", [[], ["--z", "0;1"]], ids=["alone", "with-z"])
    def test_empty_points_file_is_named(self, tmp_path, capsys, z):
        path = tmp_path / "empty.json"
        path.write_text("[]", encoding="utf-8")
        assert main(["reduce", "--points", str(path), *z]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"{path}: the points file holds no points" in captured.err

    @pytest.mark.parametrize("z", ["1e20;1", "1e308,0,0;1,0,1"])
    def test_huge_x_is_input_error(self, capsys, z):
        # Beyond 2^52 the translation would wrap in int64: a wrong gamma.
        assert main(["reduce", "--z", z]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "below 2^52" in captured.err

    def test_huge_translation_is_input_error(self, capsys):
        # X below 2^52, but u X u^T past it after the Lagrange congruence.
        z = (
            "4503599627370495.0,2251799813685247.5,-4503599627370495.0;"
            "8.736950273789637,-235.11608326192285,6327.842072432943"
        )
        assert main(["reduce", f"--z={z}"]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "translation below 2^52" in captured.err

    def test_largest_allowed_x(self, capsys):
        assert main(["reduce", "--z", "4503599627370495;1"]) == 0
        rec = json.loads(capsys.readouterr().out)["results"][0]
        assert rec["gamma"] == [[1, -4503599627370495], [0, 1]]
        assert rec["z_red"] == {"X": [[0.0]], "Y": [[1.0]]}


class TestBound:
    def test_e4_passes(self, e4_file, tmp_path):
        out = tmp_path / "report.json"
        rc = main(
            [
                "bound",
                "--form",
                str(e4_file),
                "--samples",
                "200",
                "--seed",
                "7",
                "--out",
                str(out),
            ]
        )
        assert rc == 0
        report = json.loads(out.read_text())
        assert report["violations"] == 0
        assert report["kind"] == "theorem"
        assert report["constant"] > 0

    def test_negative_control(self, e4_file, tmp_path):
        out = tmp_path / "neg.json"
        rc = main(
            [
                "bound",
                "--form",
                str(e4_file),
                "--samples",
                "100",
                "--constant",
                "1e-6",
                "--out",
                str(out),
            ]
        )
        assert rc == 1
        assert json.loads(out.read_text())["violations"] > 0

    def test_zero_form_trivially_passes(self, zero_file):
        assert main(["bound", "--form", str(zero_file), "--samples", "50"]) == 0

    def test_corollary_kind(self, e4_file):
        rc = main(
            ["bound", "--form", str(e4_file), "--samples", "100", "--kind", "corollary"]
        )
        assert rc == 0

    def test_corollary_below_lambda_one(self, constant_file, capsys):
        # lambda1 = 0: the corollary constant is twice the theorem's.
        argv = ["bound", "--form", str(constant_file), "--samples", "200", "--kind", "corollary"]
        assert main(argv) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["factor"] == 2.0
        assert report["constant"] == 2.0 * report["theorem_constant"]

    def test_determinism(self, e4_file, tmp_path):
        out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
        args = ["bound", "--form", str(e4_file), "--samples", "100", "--seed", "3"]
        assert main(args + ["--out", str(out1)]) == 0
        assert main(args + ["--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_csv_rows(self, e4_file, tmp_path):
        out = tmp_path / "sweep.csv"
        rc = main(
            [
                "bound",
                "--form",
                str(e4_file),
                "--samples",
                "50",
                "--out",
                str(out),
                "--format",
                "csv",
            ]
        )
        assert rc == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "x11,y11,phi,rhs,ratio"
        assert len(lines) == 51


    @pytest.mark.parametrize("command", ["bound", "moderate"])
    def test_zero_form_csv_ratios_are_zero(self, zero_file, tmp_path, command):
        # 0 / 0 reads as 0 in the CSV rows, as in the JSON report.
        out = tmp_path / "zero.csv"
        args = ["--form", str(zero_file), "--samples", "20", "--format", "csv"]
        rc = main([command, *args, "--out", str(out)])
        assert rc == 0
        header, *rows = out.read_text().strip().splitlines()
        col = header.split(",").index("ratio")
        assert len(rows) == 20
        assert all(float(row.split(",")[col]) == 0.0 for row in rows)


def _reject_constant(token):
    raise ValueError(f"{token} is not a JSON token")


class TestStrictJson:
    # Each report kind parses as strict JSON: Infinity, -Infinity and NaN
    # are not tokens of RFC 8259, so json.loads must never meet them.
    @pytest.mark.parametrize(
        "argv",
        [
            ["eval", "--form", "E4", "--z", "0;1", "--z", "0.3;0.02"],
            ["reduce", "--z", "0.3;0.2", "--z", "0.4999;0.0003"],
            ["reduce", "--z", "0.1,0,-0.2;1,0.1,1.2"],
            ["check", "--form", "E4", "--samples", "20"],
            ["bound", "--form", "E4", "--samples", "20"],
            ["bound", "--form", "E4", "--samples", "20", "--kind", "corollary"],
            ["moderate", "--form", "E4", "--samples", "20"],
        ],
        ids=["eval", "reduce", "reduce-deg2", "check", "bound", "corollary", "moderate"],
    )
    def test_report_is_strict_json(self, e4_file, capsys, argv):
        assert main([str(e4_file) if a == "E4" else a for a in argv]) == 0
        json.loads(capsys.readouterr().out, parse_constant=_reject_constant)

    def test_infinite_ratio_is_null(self, e4_file, capsys):
        # rhs = 1e-320 * prod(...) is subnormal, so phi / rhs overflows: the
        # ratio is inf, written as null, and no overflow warning is printed.
        argv = ["bound", "--form", str(e4_file), "--samples", "20", "--constant", "1e-320"]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(argv) == 1
        report = json.loads(capsys.readouterr().out, parse_constant=_reject_constant)
        assert report["worst_ratio"] is None
        assert report["violations"] == 20
        assert report["worst_point"]["Y"][0][0] > 0


class TestModerate:
    def test_e4_passes(self, e4_file):
        assert main(["moderate", "--form", str(e4_file), "--samples", "100"]) == 0

    def test_constant_form_passes(self, constant_file, capsys):
        # lambda1 = 0 at n = 1: the proved factor is 2, not safety.
        assert main(["moderate", "--form", str(constant_file), "--samples", "200"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["factor"] == 2.0
        assert report["violations"] == 0

    def test_csv_rows(self, e4_file, tmp_path):
        out = tmp_path / "mod.csv"
        rc = main(
            [
                "moderate",
                "--form",
                str(e4_file),
                "--samples",
                "20",
                "--out",
                str(out),
                "--format",
                "csv",
            ]
        )
        assert rc == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "g_11,g_12,g_21,g_22,phi,rhs,ratio"
        assert len(lines) == 21

    @pytest.mark.parametrize("w0", ["x", "1,2", "1"])
    def test_bad_w0(self, e4_file, capsys, w0):
        # moderate bounds ||lift(F, g)||, which bounds every pairing
        # <lift(F, g), w0>, and takes no --w0: any value is malformed input.
        with pytest.raises(SystemExit) as exc:
            main(["moderate", "--form", str(e4_file), "--samples", "10", "--w0", w0])
        assert exc.value.code == 2
        assert "unrecognized arguments: --w0" in capsys.readouterr().err

    def test_exponent_too_small(self, e4_file, capsys):
        # moderate certifies at the exponent n lambda1 / 2 and takes no
        # other: --r is malformed input, whatever its value.
        for r in ("0.5", "2"):
            with pytest.raises(SystemExit) as exc:
                main(["moderate", "--form", str(e4_file), "--samples", "10", "--r", r])
            assert exc.value.code == 2
            assert "unrecognized arguments: --r" in capsys.readouterr().err


@pytest.fixture(scope="module")
def coset_file(e4_file, tmp_path_factory):
    # e4 with the inversion as a coset representative: per-cusp data that
    # the package does not store.
    data = json.loads(e4_file.read_text(encoding="utf-8"))
    data["coset_reps"] = [[[0, -1], [1, 0]]]
    path = tmp_path_factory.mktemp("forms") / "e4_coset.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    return path


class TestCosetReps:
    @pytest.mark.parametrize("command", ["bound", "moderate"])
    def test_constant_estimate_rejected(self, coset_file, capsys, command):
        assert main([command, "--form", str(coset_file), "--samples", "20"]) == 2
        err = capsys.readouterr().err
        assert "input error" in err
        assert "coset_reps: per-cusp expansions" in err

    @pytest.mark.parametrize(
        "command, extra",
        [
            ("bound", ["--samples", "20", "--constant", "2"]),
            ("moderate", ["--samples", "20", "--constant", "2"]),
            ("check", ["--samples", "20"]),
            ("eval", ["--z", "0;1"]),
        ],
    )
    def test_commands_that_estimate_nothing_still_run(self, coset_file, capsys, command, extra):
        # Commands that estimate no constant reject the file too: it is
        # refused at load, before any of them reads it.
        assert main([command, "--form", str(coset_file), *extra]) == 2
        assert "input error: coset_reps: per-cusp expansions" in capsys.readouterr().err


class TestCheck:
    def test_e4(self, e4_file, tmp_path):
        out = tmp_path / "check.json"
        rc = main(
            [
                "check",
                "--form",
                str(e4_file),
                "--samples",
                "25",
                "--seed",
                "5",
                "--out",
                str(out),
            ]
        )
        assert rc == 0
        report = json.loads(out.read_text())
        assert report["violations"] == 0
        assert report["max_deviation"] <= report["threshold"]

    def test_tmax_just_below_a_level(self, e4_file, tmp_path):
        # The term at level 5 is dropped on load; the tail must count it, or
        # the truncated E4 fails its own transformation law.
        path = _edited(e4_file, tmp_path, T_max=4.9999999999)
        assert main(["check", "--form", str(path), "--samples", "100"]) == 0

    @pytest.mark.parametrize(
        "value", [[], [[[1, 1], [0, 1]]], "x"], ids=["empty", "translation", "string"]
    )
    def test_gamma_test_set_is_input_error(self, e4_file, tmp_path, capsys, value):
        # The library chooses the gamma that check tests; a file that lists
        # its own is refused at load, whatever it lists, naming the key.
        path = _edited(e4_file, tmp_path, gamma_test_set=value)
        for command, *extra in (["check", "--samples", "10"], ["eval", "--z", "0;1"]):
            assert main([command, "--form", str(path), *extra]) == 2
            out, err = capsys.readouterr()
            assert out == "" and err.startswith("input error: gamma_test_set")

    @pytest.mark.parametrize(
        "name, mutate, verdict",
        [
            ("e4", lambda d: d["rep"].update(k=6), 1),
            ("e2star", lambda d: d.update(coefficients=[r for r in d["coefficients"] if not r["beta"]]), 1),
            ("e4", lambda d: d["coefficients"][0].update(value=[[-1.0, 0.0]]), 1),
            ("sym2", None, 1),
            ("constant", None, 0),
            ("zero", None, 0),
        ],
        ids=["e4-weight-6", "e2star-without-1-over-y", "e4-a0-minus-1", "sym2", "constant", "zero"],
    )
    def test_verdict_without_a_listed_gamma_set(self, tmp_path, capsys, name, mutate, verdict):
        # The library's gamma refute the four non-modular forms whatever a
        # file might list, and pass the constant and zero forms.
        path = tmp_path / f"{name}.json"
        assert main(["sample", "--name", name, "--out", str(path)]) == 0
        data = json.loads(path.read_text(encoding="utf-8"))
        assert "gamma_test_set" not in data
        if mutate is not None:
            mutate(data)
            path.write_text(json.dumps(data), encoding="utf-8")
        argv = ["check", "--form", str(path), "--samples", "1000", "--seed", "0"]
        assert main(argv) == verdict
        report = json.loads(capsys.readouterr().out)
        assert (report["gammas"], report["violations"] > 0) == (1, verdict == 1)


def _level_two_file(tmp_path, k, coefficient, growth_a):
    """A degree-1 weight-k file at level 2 with a(m/2) = coefficient(m) at
    every stored key m <= 20 (T_max = 10)."""
    records = [{"beta": {}, "S": [[m]], "value": [[float(coefficient(m)), 0.0]]} for m in range(21)]
    data = {
        "n": 1, "p": 0, "level": 2, "T_max": 10.0, "rep": {"j": 0, "k": k},
        "growth": {"A": growth_a, "kappa": 3.0}, "coefficients": records,
    }
    path = tmp_path / "level2.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    return path


def _r8(m):
    # Representations of m as a sum of 8 squares: the coefficients of theta^8.
    if m == 0:
        return 1
    return 16 * sum((-1) ** (m + d) * d**3 for d in range(1, m + 1) if m % d == 0)


class TestLevelTwo:
    # At level 2 the keys are 2S, so z -> z + 1 is not exact and is sampled.
    # theta^8 = sum r_8(m) q^(m/2) has weight 4 under J but not period 1;
    # |r_8(m)| <= 16 zeta(3) m^3 <= 160 (1 + m/2)^3.

    def test_theta8_fails_the_translation(self, tmp_path, capsys, monkeypatch):
        path = _level_two_file(tmp_path, 4, _r8, 160.0)
        argv = ["check", "--form", str(path), "--samples", "1000", "--seed", "0"]
        assert main(argv) == 1
        report = json.loads(capsys.readouterr().out)
        assert report["gammas"] == 2 and report["violations"] > 0
        # J alone, the level-1 set, passes it: the level rule is what fails it.
        monkeypatch.setattr(forms, "invariance_gammas", lambda n, level: (inversion(n),))
        assert main(argv) == 0

    def test_e4_at_level_two_passes(self, tmp_path, capsys):
        # E4 with its keys m written as 2m: the unit translation holds.
        def e4(m):
            return 0 if m % 2 else (1 if m == 0 else 240 * divisor_power_sum(m // 2, 3))

        path = _level_two_file(tmp_path, 4, e4, 300.0)
        assert main(["check", "--form", str(path), "--samples", "1000", "--seed", "0"]) == 0
        assert json.loads(capsys.readouterr().out)["gammas"] == 2


class TestConfigValidation:
    def test_bad_samples(self, e4_file):
        assert main(["check", "--form", str(e4_file), "--samples", "0"]) == 2

    @pytest.mark.parametrize(
        "command",
        [["bound", "--constant", "2"], ["moderate", "--constant", "2"], ["check"]],
        ids=["bound", "moderate", "check"],
    )
    def test_negative_seed(self, e4_file, capsys, command):
        # Rejected before any draw, with or without a constant to estimate.
        argv = [command[0], "--form", str(e4_file), "--samples", "20", "--seed", "-1"]
        assert main(argv + command[1:]) == 2
        assert "--seed" in capsys.readouterr().err

    def test_missing_form_file(self, tmp_path, capsys):
        # Guard: an unreadable form file is malformed input.
        assert main(["bound", "--form", str(tmp_path / "missing.json")]) == 2
        assert "input error" in capsys.readouterr().err

    @pytest.mark.parametrize("command", [["check", "--samples", "20"], ["eval", "--z", "0;1"]])
    def test_non_finite_coefficient_is_input_error(self, e4_file, tmp_path, capsys, command):
        # A NaN coefficient must not reach check, where NaN > threshold is false.
        data = json.loads(e4_file.read_text(encoding="utf-8"))
        data["coefficients"][2]["value"] = [[math.nan, 0.0]]
        path = tmp_path / "nan.json"
        path.write_text(json.dumps(data), encoding="utf-8")
        assert main([command[0], "--form", str(path), *command[1:]]) == 2
        assert "coefficients[2]" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command", [["check", "--samples", "10"], ["eval", "--z", "0;1"]], ids=["check", "eval"]
    )
    @pytest.mark.parametrize(
        "edit, named",
        [
            (("growth", "kappa", 1e308), "kappa"),
            (("coefficients", None, 5), "coefficients"),
            (("gamma_test_set", None, 7), "gamma_test_set"),
        ],
        ids=["kappa-1e308", "coefficients-5", "gamma_test_set-7"],
    )
    def test_unusable_form_file_is_input_error(self, e4_file, tmp_path, capsys, command, edit, named):
        # Malformed input, so exit 2 with the field named, and no traceback.
        data = json.loads(e4_file.read_text(encoding="utf-8"))
        key, sub, value = edit
        if sub is None:
            data[key] = value
        else:
            data[key][sub] = value
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(data), encoding="utf-8")
        assert main([command[0], "--form", str(path), *command[1:]]) == 2
        err = capsys.readouterr().err
        assert err.startswith("input error") and named in err

    @pytest.mark.parametrize(
        "statement, named",
        [
            ("d = [d]", "top level must be a JSON object"),
            ("d['rep'] = 3", "rep must be an object with fields j and k"),
            ("d['growth'] = [300.0, 3.0]", "growth must be an object with fields A and kappa"),
            ("d['coefficients'][0] = 5", "coefficients[0]: records must be objects"),
            ("del d['coefficients'][0]['beta']", "coefficients[0]: missing field 'beta'"),
            ("del d['coefficients'][0]['S']", "coefficients[0]: missing field 'S'"),
            ("del d['coefficients'][0]['value']", "coefficients[0]: missing field 'value'"),
            (
                "d['coefficients'][1]['beta'] = {'1,1': -1}",
                "coefficients[1]: power for (1,1) must be a positive integer, got -1",
            ),
            ("d['coefficients'][1]['S'] = [[1, 0], [0, 1]]", "coefficients[1]: S must be 1x1"),
            ("d['p'] = -1", "near-holomorphy degree must be non-negative"),
            ("d['growth']['A'] = -1", "growth constant A must be finite and non-negative"),
            ("d['growth']['kappa'] = math.inf", "growth exponent kappa must be finite"),
        ],
        ids=[
            "top-level-not-an-object", "rep-not-an-object", "growth-not-an-object",
            "record-not-an-object", "record-without-beta", "record-without-S",
            "record-without-value", "beta-negative-power", "S-wrong-shape", "p-negative",
            "growth-A-negative", "growth-kappa-infinite",
        ],
    )
    def test_rejected_form_field_is_named(self, e4_file, tmp_path, capsys, statement, named):
        # An edited copy of `sample`'s e4 file, as CI's `edit` makes one
        # (kappa = inf is written as the JSON extension Infinity): exit 2,
        # and the message names the field.
        scope = {"d": json.loads(e4_file.read_text(encoding="utf-8")), "math": math}
        exec(statement, scope)
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(scope["d"]), encoding="utf-8")
        assert main(["eval", "--form", str(path), "--z", "0;1"]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("input error: ") and named in err

    def test_overflowing_tail_is_numerical_failure(self, e4_file, tmp_path, capsys):
        # The package holds (1 + Tr S)^200 up to T_max; the tail series
        # reaches a level where a float cannot, and says so.
        data = json.loads(e4_file.read_text(encoding="utf-8"))
        data["growth"]["kappa"] = 200
        path = tmp_path / "kappa200.json"
        path.write_text(json.dumps(data), encoding="utf-8")
        assert main(["check", "--form", str(path), "--samples", "10"]) == 1
        assert capsys.readouterr().err.startswith("numerical failure: tail estimate overflows")

    def test_overflowing_tail_names_its_level_briefly(self, e4_file, tmp_path, capsys):
        # T_max = 1e308 at level 1 loads, and the tail series starts at level
        # 1e308, where a float overflows.  The message writes that level as
        # a float, not as its 309 digits.
        path = _edited(e4_file, tmp_path, T_max=1e308)
        assert main(["eval", "--form", str(path), "--z", "0;1"]) == 0
        assert main(["bound", "--form", str(path), "--samples", "20"]) == 0
        capsys.readouterr()
        assert main(["check", "--form", str(path), "--samples", "20"]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "numerical failure: tail estimate overflows a float at level 1e+308\n"
        assert len(err.encode()) < 120

    def test_computed_point_is_numerical_failure(self, e4_file, capsys, monkeypatch):
        # gamma = (1 0; 10^7 1) sends the samples to points whose Y is under
        # the positive-definite floor.  The library computed those points, so
        # this is a numerical failure, not bad input.
        far = SymplecticMatrix(np.array([[1, 0], [10000000, 1]]))
        monkeypatch.setattr(forms, "invariance_gammas", lambda n, level: (far,))
        assert main(["check", "--form", str(e4_file), "--samples", "20"]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith(
            "numerical failure: computed point's imaginary part is not positive definite"
        )

    def test_bad_format_rejected_by_argparse(self, e4_file):
        with pytest.raises(SystemExit):
            main(["eval", "--form", str(e4_file), "--format", "xml"])


@pytest.fixture(scope="module")
def sym2_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("forms") / "sym2.json"
    save_form_package(build_sample("sym2"), path)
    return path


@pytest.fixture(scope="module")
def deg2_points_file(tmp_path_factory):
    """3000 degree-2 points, whose reduce report is far larger than a
    pipe buffer (64 KiB)."""
    rng = np.random.default_rng(29)
    x = rng.uniform(-2.0, 2.0, (3000, 2, 2))
    a = rng.uniform(-1.0, 1.0, (3000, 2, 2))
    xs = (x + x.transpose(0, 2, 1)) / 2
    ys = a @ a.transpose(0, 2, 1) + 0.05 * np.eye(2)
    records = [{"X": u, "Y": v} for u, v in zip(xs.tolist(), ys.tolist())]
    path = tmp_path_factory.mktemp("points") / "deg2.json"
    path.write_text(json.dumps(records), encoding="utf-8")
    return path


# Each case: its arguments, with {e4}, {sym2}, {points} and {out} filled in.
CONSOLE_CASES = {
    "bound-json-out": "bound --form {e4} --samples 200 --out {out}",
    "corollary-csv-out": "bound --form {e4} --samples 200 --kind corollary --format csv --out {out}",
    "reduce-large-stdout": "reduce --points {points}",
    "check-exit-1": "check --form {sym2} --samples 100",
}


@pytest.mark.parametrize("case", sorted(CONSOLE_CASES))
def test_console_entry_point(case, e4_file, sym2_file, deg2_points_file, tmp_path, capsys):
    """``python -m nhsiegel.cli``, which exits through entry() and so with a
    frozen collector, gives the exit code, stdout, stderr and written file
    of main() called in-process, byte for byte."""
    def argv(out):
        spec = CONSOLE_CASES[case].format(
            e4=e4_file, sym2=sym2_file, points=deg2_points_file, out=out
        )
        return spec.split()

    # Without PYTHONUNBUFFERED, stdout to a pipe is block-buffered, as for a
    # user, so a report smaller than the buffer reaches it only by the flush
    # at exit.
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    proc = subprocess.run(
        [sys.executable, "-m", "nhsiegel.cli", *argv(tmp_path / "process.out")],
        capture_output=True,
        env=env,
    )
    code = main(argv(tmp_path / "main.out"))
    captured = capsys.readouterr()
    assert proc.returncode == code
    assert proc.stdout == captured.out.encode("utf-8")
    assert proc.stderr == captured.err.encode("utf-8")
    if "{out}" in CONSOLE_CASES[case]:
        assert (tmp_path / "process.out").read_bytes() == (tmp_path / "main.out").read_bytes()
    else:
        # The report went to stdout: for reduce, more than a pipe buffer.
        assert len(proc.stdout) > (1 << 16 if case.startswith("reduce") else 0)


ENTRY_CASES = {
    "sample": "sample --name e4 --out {out}",
    "violation": "bound --form {e4} --samples 20 --constant 1e-6",
    "usage": "bound --samples 20",
}


@pytest.mark.parametrize("case", sorted(ENTRY_CASES))
def test_entry_freezes_and_exits_with_mains_code(case, e4_file, tmp_path, monkeypatch, capsys):
    """entry() exits with main()'s code, or argparse's, after moving every
    object to the collector's permanent generation."""
    def argv(out):
        return ENTRY_CASES[case].format(e4=e4_file, out=out).split()

    try:
        want = main(argv(tmp_path / "main.json"))
    except SystemExit as exc:
        want = exc.code
    assert gc.get_freeze_count() == 0
    monkeypatch.setattr(sys, "argv", ["nhsiegel", *argv(tmp_path / "entry.json")])
    try:
        with pytest.raises(SystemExit) as exc:
            entry()
        assert exc.value.code == want
        assert gc.get_freeze_count() > 0
    finally:
        gc.unfreeze()
    assert want == {"sample": 0, "violation": 1, "usage": 2}[case]


class TestJsonInput:
    """Malformed numbers in form and points files, and non-finite inline
    points, are input errors (exit 2) that name the record."""

    def test_form_value_out_of_float_range(self, e4_file, tmp_path, capsys):
        text = e4_file.read_text(encoding="utf-8")
        data = json.loads(text)
        data["coefficients"][1]["value"] = [[10**400, 0]]
        path = tmp_path / "huge.json"
        path.write_text(json.dumps(data), encoding="utf-8")
        assert main(["bound", "--form", str(path), "--samples", "20"]) == 2
        err = capsys.readouterr().err
        assert "coefficients[1]: value" in err and "Traceback" not in err

    def test_form_string_t_max(self, e4_file, tmp_path, capsys):
        data = json.loads(e4_file.read_text(encoding="utf-8"))
        data["T_max"] = "10"
        path = tmp_path / "string.json"
        path.write_text(json.dumps(data), encoding="utf-8")
        assert main(["bound", "--form", str(path), "--samples", "20"]) == 2
        assert "T_max" in capsys.readouterr().err

    def test_form_boolean_weight(self, e4_file, tmp_path, capsys):
        # "k": true once loaded E4 as weight det^1, and bound reported violations.
        data = json.loads(e4_file.read_text(encoding="utf-8"))
        data["rep"] = {"j": 0, "k": True}
        path = tmp_path / "bool.json"
        path.write_text(json.dumps(data), encoding="utf-8")
        assert main(["bound", "--form", str(path), "--samples", "20"]) == 2
        assert "rep.j and rep.k" in capsys.readouterr().err

    def test_form_rep_table_too_large(self, sym2_file, tmp_path, capsys):
        # Sym^40 of degree 2 once built a 332 MB rep_matrix table on the
        # first evaluation.
        data = json.loads(sym2_file.read_text(encoding="utf-8"))
        data["rep"]["j"] = 40
        path = tmp_path / "sym40.json"
        path.write_text(json.dumps(data), encoding="utf-8")
        assert main(["eval", "--form", str(path), "--z", "0.1,0.2,0.3;1,0.2,1.5"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "input error: rep: Sym^40 of degree 2 needs" in captured.err

    @pytest.mark.parametrize("command", ["reduce", "eval"])
    @pytest.mark.parametrize(
        "records, named",
        [
            ([{"X": [["0.1"]], "Y": [[1.0]]}], "points[0]: X"),
            ([{"X": [[0.1]], "Y": [[True]]}], "points[0]: Y"),
        ],
    )
    def test_points_file_entries(self, e4_file, tmp_path, capsys, command, records, named):
        path = tmp_path / "points.json"
        path.write_text(json.dumps(records), encoding="utf-8")
        argv = [command, "--points", str(path)]
        if command == "eval":
            argv += ["--form", str(e4_file)]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert named in captured.err and captured.out == ""

    @pytest.mark.parametrize("command", ["reduce", "eval"])
    @pytest.mark.parametrize("spec", ["nan;1", "inf;1", "0,nan,0;1,0,1"])
    def test_non_finite_x(self, e4_file, capsys, command, spec):
        argv = [command, "--z", spec]
        if command == "eval":
            argv += ["--form", str(e4_file)]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert f"point {spec!r}" in captured.err and "non-finite" in captured.err
        assert captured.out == ""
