"""The CLI commands over one PointBatch.

``eval``, ``reduce`` and ``check`` build one batch of points and run each
kernel once over it.  These tests check that the batched commands report
what point-by-point library calls report, that each point's Y is
decomposed once, that mixed-degree input is rejected, that each
subcommand takes only the flags it reads, and that nothing is computed
twice: ``eval`` sums the series once, ``reduce`` forms each reduced point
once, and ``--tmax`` re-truncates without validating the terms again.
"""

import json
import math

import numpy as np
import pytest

import nhsiegel.linalg
from nhsiegel.cli import main
from nhsiegel.errors import FormDataError
from nhsiegel.formio import save_form_package
from nhsiegel.forms import (
    FLOAT_FLOOR,
    FourierExpansion,
    check_invariance,
    evaluate,
    phi,
    slash,
    tail_bound,
)
from nhsiegel.linalg import MultiIndex, eigenvalues_sym, in_V_delta, inv_stack
from nhsiegel.reps import make_rep, norms, rep_matrix
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
        # 6 terms on load, the 50 samples, and the 50 moved points per gamma.
        eigh_matrices[0] = 0
        argv = ["check", "--form", str(forms["sym2"]), "--samples", "50"]
        assert main(argv + ["--out", str(tmp_path / "c.json")]) == 1
        assert 0 < eigh_matrices[0] <= 156

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
    for g in package.gamma_test_set:
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
    report = check_invariance(package, points)
    assert (report.max_deviation, report.threshold, report.violations) == _reference_check(
        package, points
    )
    as_list = check_invariance(package, [points.point(i) for i in range(len(points))])
    assert as_list == report


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
            ["reduce", "--z", "0;1", "--delta", "0"],
            ["reduce", "--z", "0;1", "--tol", "0"],
            ["bound", "--form", "f.json", "--samples", "0"],
            ["moderate", "--form", "f.json", "--tol", "-1"],
            ["bound", "--form", "f.json", "--constant", "1e-6", "--tol", "nan"],
            ["bound", "--form", "f.json", "--constant", "1e-6", "--tol", "inf"],
            ["bound", "--form", "f.json", "--constant", "nan"],
            ["bound", "--form", "f.json", "--constant", "inf"],
            ["moderate", "--form", "f.json", "--constant", "-1"],
            ["reduce", "--z", "0;1", "--delta", "nan"],
            ["reduce", "--z", "0;1", "--delta", "inf"],
        ],
    )
    def test_kept_flags_still_checked(self, capsys, argv):
        assert main(argv) == 2
        assert "must be" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "extra",
        [
            ["--r", "nan"],
            ["--r", "inf"],
            ["--constant", "1e-6", "--r", "nan"],
            ["--w0", "nan"],
            ["--w0", "inf"],
        ],
    )
    def test_non_finite_moderate_arguments_rejected(self, forms, capsys, extra):
        argv = ["moderate", "--form", str(forms["e4"]), "--samples", "20", *extra]
        assert main(argv) == 2
        assert "must be finite" in capsys.readouterr().err

    @pytest.mark.parametrize("w0", ["0", "-0.0"])
    def test_zero_w0_rejected(self, forms, capsys, w0):
        argv = ["moderate", "--form", str(forms["e4"]), "--samples", "20", "--w0", w0]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "w0 must be non-zero" in captured.err

    def test_tmax_above_the_stored_levels_rejected(self, forms, capsys):
        # e4.json stores the levels up to T_max = 20: a bound of 50 would
        # start the tail at level 51 and skip the unstored levels 21-50.
        argv = ["check", "--form", str(forms["e4"]), "--samples", "20"]
        assert main(argv + ["--tmax", "50"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "T_max" in captured.err
        # A bound that keeps the same levels is accepted, with the same report.
        assert main(argv + ["--tmax", "20"]) == 0
        kept = capsys.readouterr().out
        assert main(argv + ["--tmax", "20.5"]) == 0
        assert capsys.readouterr().out == kept

    def test_reduce_delta_and_tol(self, capsys):
        assert main(["reduce", "--z", "0;1", "--delta", "1.5", "--tol", "0.5"]) == 0
        rec = json.loads(capsys.readouterr().out)["results"][0]
        assert rec["delta"] == 1.5
        assert rec["in_V_delta"] is True


@pytest.mark.parametrize("name", sorted(SAMPLE_BUILDERS))
def test_build_sample_t_max(name):
    assert build_sample(name, t_max=3.0).expansion.t_max == 3.0


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
        assert main(["reduce", "--z", "0.5;0.8660254034957635", "--tol", "1e-12"]) == 0
        assert json.loads(capsys.readouterr().out)["results"][0]["in_V_delta"] is True

    def test_reduced_points_clear_the_floor(self):
        _, reduced = reduce_batch(_adversarial(1, 2000, seed=5))
        assert reduced.eigvals[:, -1].min() >= delta_for_degree(1) - 1e-12


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


def _retruncated_by_from_terms(expansion, t_max):
    # Every stored term sent through from_terms again.
    terms = [
        (beta, np.array(skey, dtype=float), vec)
        for (beta, skey), vec in expansion.coefficients.items()
    ]
    return FourierExpansion.from_terms(
        expansion.n, expansion.p, expansion.level, expansion.rep, t_max, terms
    )


def _level_three_expansion():
    # Traces such as 1/3 + 1/3 test the Tr(S) cut at level N > 1.
    rep = make_rep(2, 0, 2)
    beta = MultiIndex.from_dict(2, {})
    keys = [
        [[1, 0], [0, 1]], [[1, 1], [1, 1]], [[2, 1], [1, 2]], [[4, 2], [2, 5]], [[0, 0], [0, 3]]
    ]
    terms = [(beta, key, [complex(i + 1)]) for i, key in enumerate(keys)]
    return FourierExpansion.from_terms(2, 0, 3, rep, 10.0, terms)


class TestWithTMax:
    @pytest.mark.parametrize("name", ["e4", "e2star", "sym2"])
    def test_runs_no_eigensolve(self, name, monkeypatch):
        expansion = build_sample(name).expansion
        calls = []
        eigh = nhsiegel.linalg._eigh
        monkeypatch.setattr(nhsiegel.linalg, "_eigh", lambda a: calls.append(a) or eigh(a))
        assert len(expansion.with_t_max(3.0).coefficients) > 0
        assert calls == []

    @pytest.mark.parametrize(
        "expansion",
        [build_sample("e4").expansion, build_sample("sym2").expansion, _level_three_expansion()],
        ids=["e4", "sym2", "level3"],
    )
    def test_keeps_what_from_terms_keeps(self, expansion):
        traces = sorted({float(np.trace(s)) for _, s, _ in expansion.terms()})
        for t_max in [0.0, *traces, *(t + 1e-9 for t in traces)]:
            got = expansion.with_t_max(t_max)
            want = _retruncated_by_from_terms(expansion, t_max)
            assert got == want
            assert list(got.coefficients) == list(want.coefficients)
        for t_max in [-1.0, expansion.t_max + 1.0]:
            with pytest.raises(FormDataError):
                expansion.with_t_max(t_max)
