"""The CLI commands over one PointBatch.

``eval``, ``reduce`` and ``check`` build one batch of points and run each
kernel once over it.  These tests check that the batched commands report
what point-by-point library calls report, that each point's Y is
decomposed once, that mixed-degree input is rejected, that each
subcommand takes only the flags it reads, and that nothing is computed
twice: ``eval`` sums the series once and ``reduce`` forms each reduced
point once.  A form's truncation is read from its file alone: no command
takes ``--tmax``.
"""

import csv
import io
import json
import math
import warnings

import numpy as np
import pytest

from conftest import in_V_delta
import nhsiegel.linalg
from nhsiegel.cli import main
from nhsiegel.formio import save_form_package
from nhsiegel.forms import (
    FLOAT_FLOOR,
    check_invariance,
    evaluate,
    invariance_gammas,
    phi,
    slash,
    tail_bound,
)
from nhsiegel.linalg import eigenvalues_sym, inv_stack
from nhsiegel.reps import norms, rep_matrix
from nhsiegel.samples import SAMPLE_BUILDERS, build_sample
from nhsiegel.sampling import CHECK_BOX, random_siegel_points
from nhsiegel.symplectic import (
    PointBatch,
    SiegelPoint,
    act,
    automorphy_factor,
    delta_for_degree,
    reduce_batch,
    reduce_to_fundamental,
)


@pytest.fixture(scope="module")
def forms(tmp_path_factory):
    root = tmp_path_factory.mktemp("forms")
    paths = {}
    for name in ("e4", "e2star", "sym2"):
        paths[name] = root / f"{name}.json"
        save_form_package(build_sample(name), paths[name])
    # The constant form at weight 300, whose moderate exponent is 150.
    path = paths["constant_k300"] = root / "constant_k300.json"
    save_form_package(build_sample("constant"), path)
    data = json.loads(path.read_text(encoding="utf-8"))
    data["rep"]["k"] = 300
    path.write_text(json.dumps(data), encoding="utf-8")
    return paths


def _points_file(path, batch: PointBatch):
    path.write_text(
        json.dumps([{"X": x, "Y": y} for x, y in zip(batch.X.tolist(), batch.Y.tolist())]),
        encoding="utf-8",
    )
    return str(path)


def _adversarial(n, count=200, seed=11):
    return random_siegel_points(n, np.random.default_rng(seed), count)


def _run_json(argv, tmp_path):
    out = tmp_path / "out.json"
    assert main(argv + ["--out", str(out)]) == 0
    return json.loads(out.read_text())["results"]


def _close(got, want, rel=1e-12):
    got, want = np.asarray(got), np.asarray(want)
    assert np.all(np.abs(got - want) <= rel * np.maximum(1.0, np.abs(want)))


@pytest.fixture
def eigh_matrices(monkeypatch):
    """Counts the matrices that the LAPACK eigensolver decomposes (a 1x1
    problem takes no solver and is not counted)."""
    real = nhsiegel.linalg._eigh_lo
    count = [0]

    def counting(a, *args, **kwargs):
        a = np.asarray(a)
        count[0] += a.size // (a.shape[-1] * a.shape[-2])
        return real(a, *args, **kwargs)

    monkeypatch.setattr(nhsiegel.linalg, "_eigh_lo", counting)
    return count


class TestMixedDegrees:
    @pytest.mark.parametrize("command", ["reduce", "eval"])
    def test_inline_points(self, forms, capsys, command):
        argv = [command, "--z", "0;1", "--z", "0,0,0;1,0,1"]
        if command == "eval":
            argv += ["--form", str(forms["e4"])]
        assert main(argv + ["--format", "csv"]) == 2
        captured = capsys.readouterr()
        assert "point '0,0,0;1,0,1'" in captured.err
        assert "degree 2" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("command", ["reduce", "eval"])
    def test_points_file(self, forms, tmp_path, capsys, command):
        path = tmp_path / "mixed.json"
        path.write_text(
            json.dumps(
                [
                    {"X": [[0.0]], "Y": [[1.0]]},
                    {"X": [[0.0, 0.0], [0.0, 0.0]], "Y": [[1.0, 0.0], [0.0, 1.0]]},
                ]
            ),
            encoding="utf-8",
        )
        argv = [command, "--points", str(path)]
        if command == "eval":
            argv += ["--form", str(forms["e4"])]
        assert main(argv) == 2
        assert "points[1]" in capsys.readouterr().err

    def test_from_points_rejects_mixed_degrees(self):
        with pytest.raises(ValueError):
            PointBatch.from_points([SiegelPoint.base_point(1), SiegelPoint.base_point(2)])
        with pytest.raises(ValueError):
            PointBatch.from_points([])


class TestEigensolveCounts:
    def test_reduce_decomposes_each_point_at_most_three_times(
        self, tmp_path, eigh_matrices
    ):
        k = 50
        path = _points_file(tmp_path / "points.json", _adversarial(2, k))
        eigh_matrices[0] = 0
        assert main(["reduce", "--points", path, "--out", str(tmp_path / "r.json")]) == 0
        assert 0 < eigh_matrices[0] <= 3 * k

    def test_check_decomposes_each_y_once(self, forms, tmp_path, eigh_matrices):
        # 6 terms on load, the 50 samples, and the 50 moved points per gamma
        # (J alone at level 1).
        eigh_matrices[0] = 0
        argv = ["check", "--form", str(forms["sym2"]), "--samples", "50"]
        assert main(argv + ["--out", str(tmp_path / "c.json")]) == 1
        assert 0 < eigh_matrices[0] <= 106

    def test_from_points_reuses_the_decompositions(self, eigh_matrices):
        batch = _adversarial(2, 20)
        points = [batch.point(i) for i in range(len(batch))]
        eigh_matrices[0] = 0
        stacked = PointBatch.from_points(points)
        assert eigh_matrices[0] == 0
        np.testing.assert_array_equal(stacked.eigvals, batch.eigvals)
        np.testing.assert_array_equal(stacked.eigvecs, batch.eigvecs)
        np.testing.assert_array_equal(stacked.Y, batch.Y)


class TestAgainstSinglePoints:
    @pytest.mark.parametrize("n", [1, 2])
    def test_reduce(self, tmp_path, n):
        batch = _adversarial(n)
        path = _points_file(tmp_path / "points.json", batch)
        results = _run_json(["reduce", "--points", path], tmp_path)
        assert len(results) == len(batch)
        delta = delta_for_degree(n)
        for i, rec in enumerate(results):
            gamma, z_red = reduce_to_fundamental(batch.point(i))
            assert rec["gamma"] == gamma.mat.astype(int).tolist()
            _close(rec["z_red"]["X"], z_red.X)
            _close(rec["z_red"]["Y"], z_red.Y)
            low = float(eigenvalues_sym(z_red.Y)[-1])
            _close(rec["min_im_eigenvalue"], low)
            assert rec["in_V_delta"] is bool(in_V_delta(z_red.Y, delta, tol=1e-9))
            assert rec["delta"] == delta

    @pytest.mark.parametrize("name", ["e4", "e2star", "sym2"])
    def test_eval(self, forms, tmp_path, name):
        package = build_sample(name)
        batch = _adversarial(package.n)
        path = _points_file(tmp_path / "points.json", batch)
        results = _run_json(["eval", "--form", str(forms[name]), "--points", path], tmp_path)
        assert len(results) == len(batch)
        for i, rec in enumerate(results):
            z = batch.point(i)
            assert rec["point"] == {"X": z.X.tolist(), "Y": z.Y.tolist()}
            coords = evaluate(package.expansion, z).coords
            value = np.array(rec["value"])
            _close(value[:, 0] + 1j * value[:, 1], coords)
            _close(rec["phi"], phi(package, z))

    @pytest.mark.parametrize("n", [1, 2])
    def test_reduce_csv_rows(self, tmp_path, n):
        batch = _adversarial(n, 30)
        path = _points_file(tmp_path / "points.json", batch)
        out = tmp_path / "r.csv"
        assert main(["reduce", "--points", path, "--format", "csv", "--out", str(out)]) == 0
        header, *rows = out.read_text().strip().splitlines()
        gamma, reduced = reduce_batch(batch)
        upper = np.triu_indices(n)
        assert header.split(",")[-1] == "min_im_eigenvalue"
        assert len(rows) == len(batch)
        for i, row in enumerate(rows):
            cells = [
                *batch.X[i][upper], *batch.Y[i][upper],
                *reduced.X[i][upper], *reduced.Y[i][upper],
                reduced.eigvals[i, -1],
            ]
            assert row.split(",") == [repr(float(c)) for c in cells]


def _reference_check(package, points):
    # check_invariance as it was summed point by point: the slash through
    # ``slash``, and the tails through ``tail_bound`` at every Y.
    rep = package.rep
    base = evaluate(package.expansion, points)
    base_tail = np.array([tail_bound(package, y) for y in points.Y])
    devs, thrs = [], []
    for g in invariance_gammas(package.n, package.expansion.level):
        slashed = slash(package, g).func(points)
        devs.append(norms(rep, slashed - base) / (1.0 + norms(rep, base)))
        jinv = rep_matrix(rep, inv_stack(automorphy_factor(g.mat, points)))
        amp = np.sqrt(np.sum(np.abs(jinv) ** 2, axis=(1, 2)))
        moved_tail = np.array([tail_bound(package, y) for y in act(g.mat, points).Y])
        thrs.append(base_tail + amp * moved_tail + FLOAT_FLOOR)
    devs, thrs = np.array(devs), np.array(thrs)
    return float(devs.max()), float(thrs.max()), int(np.sum(devs > thrs))


@pytest.mark.parametrize("name", ["e4", "e2star", "sym2"])
def test_check_invariance_matches_point_by_point_reference(name):
    package = build_sample(name)
    points = random_siegel_points(package.n, np.random.default_rng(3), 60, *CHECK_BOX)
    report = check_invariance(package, [points])
    assert (report.max_deviation, report.threshold, report.violations) == _reference_check(
        package, points
    )
    restacked = PointBatch.from_points(points.point(i) for i in range(len(points)))
    assert check_invariance(package, [restacked]) == report


class TestFlags:
    # (command, the arguments it needs, the flags it no longer takes)
    REMOVED = [
        ("eval", ["--form", "f.json", "--z", "0;1"], ["--delta", "--samples", "--seed", "--tol"]),
        ("reduce", ["--z", "0;1"], ["--samples", "--seed", "--tmax"]),
        ("check", ["--form", "f.json"], ["--delta"]),
        ("bound", ["--form", "f.json"], ["--delta"]),
        ("moderate", ["--form", "f.json"], ["--delta"]),
        ("sample", ["--name", "e4"], ["--delta", "--samples", "--seed", "--tol", "--format"]),
        # Listed last: pytest numbers the ids of these cases by position.
        ("check", ["--form", "f.json"], ["--tol", "--format"]),
    ]

    @pytest.mark.parametrize(
        "command, needed, flag",
        [(c, needed, f) for c, needed, flags in REMOVED for f in flags],
    )
    def test_unread_flag_rejected(self, capsys, command, needed, flag):
        value = "json" if flag == "--format" else "1"
        with pytest.raises(SystemExit) as exc:
            main([command, *needed, flag, value])
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["check", "--form", "f.json", "--samples", "0"],
            ["moderate", "--form", "f.json", "--samples", "0"],
            ["bound", "--form", "f.json", "--samples", "0"],
            ["bound", "--form", "f.json", "--seed", "-1"],
            ["check", "--form", "f.json", "--seed", "-1"],
            ["bound", "--form", "f.json", "--constant", "0"],
            ["bound", "--form", "f.json", "--constant", "nan"],
            ["bound", "--form", "f.json", "--constant", "inf"],
            ["moderate", "--form", "f.json", "--constant", "-1"],
            ["moderate", "--form", "f.json", "--constant", "nan"],
            ["moderate", "--form", "f.json", "--constant", "inf"],
        ],
    )
    def test_kept_flags_still_checked(self, capsys, argv):
        assert main(argv) == 2
        assert "must be" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["bound", "moderate"])
    def test_sweeps_take_no_tol(self, capsys, command):
        # The sweeps' pass tolerance is the constant growth.RATIO_TOL.
        with pytest.raises(SystemExit) as exc:
            main([command, "--form", "f.json", "--tol", "1e-9"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --tol" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["bound", "--form", "f.json", "--tmax", "5"],
            ["moderate", "--form", "f.json", "--tmax", "5"],
            ["sample", "--name", "e4", "--tmax", "3"],
            ["eval", "--form", "f.json", "--z", "0;1", "--tmax", "3"],
            ["check", "--form", "f.json", "--tmax", "50"],
        ],
        ids=["bound", "moderate", "sample", "eval", "check"],
    )
    def test_sweeps_and_sample_take_no_tmax(self, capsys, tmp_path, argv):
        # Every command reads the truncation its form file stores.
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--out", str(tmp_path / "out.json")])
        assert exc.value.code == 2
        assert "unrecognized arguments: --tmax" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["eval", "--z", "0;1"],
            ["check", "--samples", "5"],
            ["bound", "--samples", "5"],
            ["moderate", "--samples", "5"],
        ],
        ids=["eval", "check", "bound", "moderate"],
    )
    def test_form_required(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "--form" in capsys.readouterr().err
        # An empty path names no form file either.
        assert main([*argv, "--form", ""]) == 2

    @pytest.mark.parametrize(
        "form, extra",
        [
            ("e4", ["bound", "--samples", "20", "--constant", "1e308"]),
            ("constant_k300", ["moderate", "--samples", "200", "--constant", "1"]),
        ],
        ids=["bound-constant", "moderate-weight-300"],
    )
    def test_overflowing_rhs_warns_nothing(self, forms, capsys, form, extra):
        # The right-hand side overflows to inf on some samples, whose
        # ratios read 0.  Weight 300 puts the moderate exponent at 150, and
        # Tr(g^T g)^150 overflows once the trace passes about 113.
        command, *rest = extra
        argv = [command, "--form", str(forms[form]), *rest]
        assert main(argv) == 0
        plain = capsys.readouterr()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(argv) == 0
            assert capsys.readouterr() == plain
            assert main(argv + ["--format", "csv"]) == 0
        assert plain.err == ""
        assert json.loads(plain.out)["violations"] == 0
        rows = list(csv.reader(io.StringIO(capsys.readouterr().out)))
        assert rows[0][-2] == "rhs" and "inf" in [row[-2] for row in rows[1:]]

    @pytest.mark.parametrize(
        "extra",
        [
            ["bound"],
            ["moderate"],
            ["bound", "--constant", "1"],
        ],
        ids=["bound", "moderate", "bound-constant"],
    )
    def test_weight_300_phi_stays_finite(self, forms, capsys, extra):
        # rho(Y^{1/2}) scales the constant form by y^150, about 1e300 at
        # y = 100: its square overflows, phi does not.
        command, *rest = extra
        argv = [command, "--form", str(forms["constant_k300"]), "--samples", "200", *rest]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(argv) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        report = json.loads(captured.out)
        assert report["violations"] == 0
        assert 0.0 < report["worst_ratio"] <= 1.0 + 1e-9
        assert 0.0 < report["constant"] < math.inf

    @pytest.mark.parametrize(
        "extra",
        [
            ["--constant=-inf"],
            # A decimal past the float range reads as inf.
            ["--constant", "1e400"],
            ["--constant=-1e400"],
            ["--constant", "nan"],
            ["--constant", "inf"],
        ],
    )
    def test_non_finite_moderate_arguments_rejected(self, forms, capsys, extra):
        argv = ["moderate", "--form", str(forms["e4"]), "--samples", "20", *extra]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "must be finite" in captured.err

    def test_t_max_keeping_the_same_levels_gives_the_same_check(self, forms, tmp_path, capsys):
        # e4.json stores T_max = 20; a copy with T_max = 20.5 keeps the same
        # levels, so its tail starts at the same level 21.
        data = json.loads(forms["e4"].read_text(encoding="utf-8"))
        assert data["T_max"] == 20
        data["T_max"] = 20.5
        wider = tmp_path / "e4_t20_5.json"
        wider.write_text(json.dumps(data), encoding="utf-8")
        assert main(["check", "--form", str(forms["e4"]), "--samples", "20"]) == 0
        kept = capsys.readouterr().out
        assert main(["check", "--form", str(wider), "--samples", "20"]) == 0
        assert capsys.readouterr().out == kept

    @pytest.mark.parametrize("flag, value", [("--delta", "1"), ("--tol", "1e-9")], ids=["--delta", "--tol"])
    def test_reduce_takes_no_delta_or_tol(self, capsys, flag, value):
        # reduce tests the proved floor delta_for_degree(n), with the
        # constant allowance cli.REDUCE_TOL.
        with pytest.raises(SystemExit) as exc:
            main(["reduce", "--z", "0;1", flag, value])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {flag}" in capsys.readouterr().err


@pytest.mark.parametrize("name", sorted(SAMPLE_BUILDERS))
def test_moderate_reports_the_certified_exponent(tmp_path, capsys, name):
    # moderate sweeps at r = n lambda1 / 2, the exponent its constant is
    # proved for.
    package = build_sample(name)
    path = tmp_path / f"{name}.json"
    save_form_package(package, path)
    main(["moderate", "--form", str(path), "--samples", "20", "--constant", "1"])
    report = json.loads(capsys.readouterr().out)
    assert report["exponent_r"] == package.n * package.lambda1 / 2.0


class TestDegreeOneFloor:
    CORNER = SiegelPoint(np.array([[0.5]]), np.array([[0.8660254034957635]]))

    def test_value(self):
        assert delta_for_degree(1) == math.sqrt(1.0 / (1.0 + 1e-9) - 0.25)
        assert math.sqrt(3) / 2 - 1e-9 < delta_for_degree(1) < math.sqrt(3) / 2

    def test_corner_is_in_the_domain(self):
        # The stopping rule keeps this point: its inversion gains less than
        # 1 + 1e-9, though Im z is below sqrt(3)/2.
        gamma, z_red = reduce_to_fundamental(self.CORNER)
        np.testing.assert_array_equal(gamma.mat, np.eye(2))
        assert z_red.Y[0, 0] < math.sqrt(3) / 2
        assert in_V_delta(z_red.Y, delta_for_degree(1))

    def test_cli_corner_at_tight_tol(self, capsys):
        assert main(["reduce", "--z", "0.5;0.8660254034957635"]) == 0
        assert json.loads(capsys.readouterr().out)["results"][0]["in_V_delta"] is True

    def test_reduced_points_clear_the_floor(self):
        _, reduced = reduce_batch(_adversarial(1, 2000, seed=5))
        assert reduced.eigvals[:, -1].min() >= delta_for_degree(1) - 1e-12


def _ci_points(n):
    # The seeded points files of the CI's console-script step.
    if n == 1:
        g = np.random.default_rng(31)
        x = g.uniform(-3, 3, 2000)
        y = 10.0 ** g.uniform(-4, 2, 2000)
        return [{"X": [[a]], "Y": [[b]]} for a, b in zip(x.tolist(), y.tolist())]
    g = np.random.default_rng(29)
    x = g.uniform(-2, 2, (3000, 2, 2))
    a = g.uniform(-1, 1, (3000, 2, 2))
    return [
        {"X": ((u + u.T) / 2).tolist(), "Y": (v @ v.T + 0.05 * np.eye(2)).tolist()}
        for u, v in zip(x, a)
    ]


@pytest.mark.parametrize("n", [1, 2])
def test_reduce_puts_every_ci_point_over_the_proved_floor(tmp_path, n):
    path = tmp_path / "points.json"
    path.write_text(json.dumps(_ci_points(n)), encoding="utf-8")
    results = _run_json(["reduce", "--points", str(path)], tmp_path)
    assert len(results) == (2000 if n == 1 else 3000)
    assert all(rec["in_V_delta"] is True for rec in results)
    assert all(rec["delta"] == delta_for_degree(n) for rec in results)


class TestNothingComputedTwice:
    """Each command computes each quantity once and reports only what it
    checked."""

    def test_reduce_decomposes_each_point_at_most_twice(self, tmp_path, eigh_matrices):
        # Once when the points are parsed, once for the reduced points.
        k = 50
        path = _points_file(tmp_path / "points.json", _adversarial(2, k))
        eigh_matrices[0] = 0
        assert main(["reduce", "--points", path, "--out", str(tmp_path / "r.json")]) == 0
        assert 0 < eigh_matrices[0] <= 2 * k

    @pytest.mark.parametrize("n", [1, 2])
    def test_reduce_record_keys(self, tmp_path, n):
        path = _points_file(tmp_path / "points.json", _adversarial(n, 20))
        for rec in _run_json(["reduce", "--points", path], tmp_path):
            assert set(rec) == {"gamma", "z_red", "min_im_eigenvalue", "in_V_delta", "delta"}

    @pytest.mark.parametrize("name", ["e4", "sym2"])
    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_eval_sums_the_series_once(self, forms, tmp_path, monkeypatch, name, fmt):
        import nhsiegel.forms

        calls = []
        real = nhsiegel.forms._series

        def counting(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(nhsiegel.forms, "_series", counting)
        path = _points_file(tmp_path / "points.json", _adversarial(build_sample(name).n, 20))
        argv = ["eval", "--form", str(forms[name]), "--points", path, "--format", fmt]
        assert main(argv + ["--out", str(tmp_path / f"e.{fmt}")]) == 0
        assert len(calls) == 1
