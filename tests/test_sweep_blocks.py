"""Sweep draws, candidate scoring and CSV rows, each built over a whole block.

A block of samples takes each sample's draws from the generator in a fixed
order and does the matrix work over the stack; the reduction scores its
inversion candidates by det(C Z + D) and forms the action only for the
winners; the CSV rows of a sweep are built from its record arrays.  These
tests hold each of them against a per-sample or per-candidate reference
written out here.
"""

import csv
import json
import math
from dataclasses import asdict

import numpy as np
import pytest

from nhsiegel import cli, forms, symplectic
from nhsiegel.cli import _point_header, main
from nhsiegel.errors import ReductionBudgetError
from nhsiegel.formio import load_form_package, save_form_package
from nhsiegel.forms import check_invariance
from nhsiegel.growth import (
    SWEEP_BLOCK,
    SweepConfig,
    check_blocks,
    estimate_constant,
    group_blocks,
    verify_growth_bound,
    verify_moderate_growth,
)
from nhsiegel.linalg import _t, det_stack
from nhsiegel.reps import basis_vector
from nhsiegel.samples import build_sample
from nhsiegel.sampling import (
    CHECK_BOX,
    EIG_HIGH,
    EIG_LOW,
    X_SCALE,
    _orthonormal,
    random_compact,
    random_group_samples,
    random_siegel_point,
    random_siegel_points,
    random_unitary,
)
from nhsiegel.symplectic import (
    _CANDIDATES,
    _IMPROVE_TOL,
    _blocks,
    _candidate_dets,
    _lagrange_2x2,
    REDUCTION_BUDGET,
    PointBatch,
    act,
    from_point,
    reduce_batch,
)


def _gram_schmidt(a):
    q = np.array(a, dtype=complex if np.iscomplexobj(a) else float)
    for i in range(q.shape[1]):
        for j in range(i):
            q[:, i] -= np.vdot(q[:, j], q[:, i]) * q[:, j]
        q[:, i] /= np.sqrt(np.vdot(q[:, i], q[:, i]).real)
    return q


def _reference_points(n, seed, count, eig_low=1e-2, eig_high=1e2, x_scale=5.0):
    """Points drawn one sample at a time: uniform X, uniform
    log-eigenvalues, then the Gaussian matrix of the rotation."""
    rng = np.random.default_rng(seed)
    xs, ys = [], []
    for _ in range(count):
        a = rng.uniform(-x_scale, x_scale, size=(n, n))
        mu = np.exp(rng.uniform(np.log(eig_low), np.log(eig_high), size=n))
        q = _gram_schmidt(rng.standard_normal((n, n)))
        xs.append((a + a.T) / 2.0)
        ys.append((q * mu) @ q.T)
    return np.array(xs), np.array(ys)


def _max_rel(got, want):
    # Per sample, the largest entry difference over the largest entry.
    scale = np.max(np.abs(want), axis=(-2, -1))
    return float(np.max(np.max(np.abs(got - want), axis=(-2, -1)) / scale))


# -- draws -------------------------------------------------------------------


@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("ranges", [(1e-2, 1e2, 5.0), (0.75, 10.0, 2.0)])
def test_block_draws_match_per_sample_reference(n, ranges):
    x_ref, y_ref = _reference_points(n, 17, 300, *ranges)
    points = random_siegel_points(n, np.random.default_rng(17), 300, *ranges)
    assert _max_rel(points.X, x_ref) <= 1e-12
    assert _max_rel(points.Y, y_ref) <= 1e-12


@pytest.mark.parametrize("n", [1, 2])
def test_orthonormal_factors_are_gram_schmidt_q(n):
    # Y does not see the column phases of its rotation; a compact factor does.
    for seed in range(50):
        rng = np.random.default_rng(seed)
        want_q = _gram_schmidt(rng.standard_normal((n, n)))
        want_u = _gram_schmidt(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
        rng = np.random.default_rng(seed)
        q = _orthonormal(rng.standard_normal((1, n, n)))[0]
        np.testing.assert_allclose(q, want_q, rtol=0, atol=1e-12)
        np.testing.assert_allclose(random_unitary(n, rng), want_u, rtol=0, atol=1e-12)


@pytest.mark.parametrize("n", [1, 2])
def test_block_size_does_not_change_the_draws(n):
    whole = random_siegel_points(n, np.random.default_rng(3), 256)
    rng = np.random.default_rng(3)
    halves = [random_siegel_points(n, rng, 128) for _ in range(2)]
    np.testing.assert_array_equal(np.concatenate([h.X for h in halves]), whole.X)
    np.testing.assert_array_equal(np.concatenate([h.Y for h in halves]), whole.Y)
    whole = random_group_samples(n, np.random.default_rng(4), 256)
    rng = np.random.default_rng(4)
    halves = [random_group_samples(n, rng, 128) for _ in range(2)]
    np.testing.assert_array_equal(np.concatenate(halves), whole)


@pytest.mark.parametrize("n", [1, 2])
def test_group_blocks_match_per_sample_reference(n):
    config = SweepConfig(samples=SWEEP_BLOCK + 44, seed=8)
    rng = np.random.default_rng(config.seed)
    want = []
    for _ in range(config.samples):
        z = random_siegel_point(n, rng, EIG_LOW, EIG_HIGH, X_SCALE)
        want.append((from_point(z) @ random_compact(n, rng)).mat)
    got = np.concatenate(list(group_blocks(n, config)))
    assert _max_rel(got, np.array(want)) <= 1e-12


# -- candidate scoring -------------------------------------------------------


@pytest.mark.parametrize("n", [2])
@pytest.mark.parametrize("reduced", [False, True])
def test_candidate_det_gives_the_gain(n, reduced):
    points = random_siegel_points(n, np.random.default_rng(21), 200, 0.1, 10.0)
    if reduced:
        points = reduce_batch(points)[1]
    dets = _candidate_dets(points.mat)
    base = np.prod(points.eigvals, axis=-1)
    for k, cand in enumerate(_CANDIDATES):
        gain = np.prod(act(cand.astype(float), points).eigvals, axis=-1) / base
        np.testing.assert_allclose(1.0 / np.abs(dets[:, k]) ** 2, gain, rtol=1e-12)


def _reference_reduce(points):
    """The reduction with every candidate's gamma Z formed and its gain read
    off det Im(gamma Z) / det Im Z; returns the gammas."""
    n = points.n
    if n == 1:  # the inversion (0 -1; 1 0) alone
        cands = np.array([[[0, -1], [1, 0]]], dtype=np.int64)
    else:
        cands = _CANDIDATES
    a, b, c, d = (blk.astype(complex) for blk in _blocks(cands, n))
    gamma = np.zeros((len(points), 2 * n, 2 * n), dtype=np.int64) + np.eye(2 * n, dtype=np.int64)
    live, g, zc = np.arange(len(points)), gamma.copy(), points.mat
    while live.size:
        if n == 2:
            u = _lagrange_2x2(zc.imag)[:, :2, :2]
            uf = u.astype(float)
            zc = uf @ zc @ _t(uf)
            zc = (zc + _t(zc)) / 2.0
            u_inv_t = np.round(_t(np.linalg.inv(uf))).astype(np.int64)
            g = np.concatenate([u @ g[:, :n], u_inv_t @ g[:, n:]], axis=1)
        t = -zc.real.round()
        g[:, :n] += t.astype(np.int64) @ g[:, n:]
        zc = zc + t
        z4 = zc[:, None]
        w = (a @ z4 + b) @ np.linalg.inv(c @ z4 + d)
        w = (w + _t(w)) / 2.0
        gain = det_stack(w.imag) / det_stack(zc.imag)[:, None]
        best = gain.argmax(axis=1)
        moved = gain.max(axis=1) > 1.0 + _IMPROVE_TOL
        gamma[live] = g
        best = best[moved]
        g = cands[best] @ g[moved]
        zc = w[moved, best]
        live = live[moved]
    return gamma


def _edge_points(n):
    """Points where the rules of a step decide: z11 = 1/2 + iy, whose
    inversion gains just above or below the 1 + _IMPROVE_TOL a step must
    beat, and in degree 2 a tie between the two embedded inversions, which
    the first must win."""
    y11 = np.sqrt(1.0 / (1.0 + np.array([0.5, 2.0, 5.0, 20.0]) * _IMPROVE_TOL) - 0.25)
    x, y = np.zeros((len(y11), n, n)), np.zeros((len(y11), n, n))
    x[:, 0, 0], y[:, 0, 0] = 0.5, y11
    if n == 2:
        y[:, 1, 1] = 2.0
        # Z = (0.9i, 0.5 + 0.4i; 0.5 + 0.4i, 0.9i): both gain 1/0.81.
        x = np.concatenate([x, [[[0.0, 0.5], [0.5, 0.0]]]])
        y = np.concatenate([y, [[[0.9, 0.4], [0.4, 0.9]]]])
    return PointBatch(x, y)


def _domain_points(n):
    """Points already in the domain: |x| <= 1/2 and no inversion gains; in
    degree 2 Y is Lagrange-reduced, so the first step's u is the identity
    and the congruence by it is skipped.  Signed zeros are among the
    entries, since the JSON of ``reduce`` prints -0.0 and 0.0 apart."""
    if n == 1:
        return PointBatch([[[0.3]], [[-0.0]], [[-0.5]]], [[[1.5]], [[2.0]], [[1.2]]])
    x = [[[0.3, -0.2], [-0.2, 0.45]], [[-0.0, -0.0], [-0.0, 0.0]], [[-0.5, 0.5], [0.5, 0.25]]]
    y = [[[1.5, 0.4], [0.4, 2.0]], [[2.0, -0.0], [-0.0, 3.0]], [[1.2, -0.6], [-0.6, 1.3]]]
    return PointBatch(x, y)


@pytest.mark.parametrize("n", [1, 2])
def test_points_in_the_domain_come_back_unchanged(n):
    points = _domain_points(n)
    if n == 2:
        np.testing.assert_array_equal(_lagrange_2x2(points.Y), np.eye(4)[None].repeat(3, axis=0))
    gamma, reduced = reduce_batch(points)
    np.testing.assert_array_equal(gamma, np.eye(2 * n)[None].repeat(3, axis=0))
    np.testing.assert_array_equal(reduced.X, points.X)
    np.testing.assert_array_equal(reduced.Y, points.Y)
    # The translation by -round(x) = 0 leaves every zero +0.0.
    assert not np.signbit(reduced.X[reduced.X == 0.0]).any()
    assert not np.signbit(reduced.Y[reduced.Y == 0.0]).any()


@pytest.mark.parametrize("n", [1, 2])
def test_reduction_matches_reference(n):
    points = random_siegel_points(n, np.random.default_rng(50 + n), 1000)
    edge = _edge_points(n)
    points = PointBatch(np.concatenate([points.X, edge.X]), np.concatenate([points.Y, edge.Y]))
    gamma, _ = reduce_batch(points)
    np.testing.assert_array_equal(gamma, _reference_reduce(points))


def _complex_reduce(z):
    """Degree-1 reduction of one Python complex number: translate by
    round(x), invert z -> -1/z while |z|^2 < 1/(1 + 1e-9).  Returns
    (gamma, z) with gamma = ((a, b), (c, d))."""
    a, b, c, d = 1, 0, 0, 1
    while True:
        t = -round(z.real)
        a, b, z = a + t * c, b + t * d, z + t
        if not abs(z) ** 2 < 1.0 / (1.0 + 1e-9):
            return ((a, b), (c, d)), z
        a, b, c, d, z = -c, -d, a, b, -1 / z


def test_degree_one_reduction_matches_complex_scalars():
    x, y = _reference_points(1, 71, 2000)
    edge = _edge_points(1)
    points = PointBatch(np.concatenate([x, edge.X]), np.concatenate([y, edge.Y]))
    gamma, reduced = reduce_batch(points)
    want = [_complex_reduce(complex(xi, yi)) for xi, yi in zip(points.X.ravel(), points.Y.ravel())]
    np.testing.assert_array_equal(gamma, [g for g, _ in want])
    # CPython divides complex numbers by another formula than numpy, so the
    # points differ by a few ulp of |z| (9 at most in 8 * 10^4 tried); X
    # alone can differ by hundreds of its own ulp when a translation cancels.
    np.testing.assert_allclose(reduced.mat.ravel(), [z for _, z in want], rtol=1e-14, atol=0)


@pytest.mark.parametrize("n", [1, 2])
def test_empty_batch_reduces_without_a_step(n, monkeypatch):
    empty = PointBatch(np.zeros((0, n, n)), np.zeros((0, n, n)))
    for budget in (REDUCTION_BUDGET, 0):
        monkeypatch.setattr(symplectic, "REDUCTION_BUDGET", budget)
        gamma, reduced = reduce_batch(empty)
        assert gamma.dtype == np.int64 and gamma.shape == (0, 2 * n, 2 * n)
        assert len(reduced) == 0 and reduced.n == n and reduced.eigvals.shape == (0, n)


@pytest.mark.parametrize("n", [1, 2])
def test_batch_reduction_matches_each_point_alone(n):
    # Points stop at different steps, so the batch drops some and carries
    # the others on; each must end as it ends on its own.
    # In degree 2 the points already in the domain skip the congruence when
    # alone, but take it in the batch, whose first step changes u elsewhere.
    x, y = _reference_points(n, 60 + n, 2000)
    edge, inside = _edge_points(n), _domain_points(n)
    points = PointBatch(
        np.concatenate([x, edge.X, inside.X]), np.concatenate([y, edge.Y, inside.Y])
    )
    if n == 2:
        assert (_lagrange_2x2(points.Y)[:, :2, :2] != np.eye(2)).any()
    gamma, reduced = reduce_batch(points)
    for i in range(len(points)):
        alone_gamma, alone = reduce_batch(points.point(i).batch)
        np.testing.assert_array_equal(gamma[i], alone_gamma[0])
        for name in ("X", "Y", "eigvals"):
            np.testing.assert_array_equal(getattr(reduced, name)[i], getattr(alone, name)[0])
        for name in ("X", "Y"):
            np.testing.assert_array_equal(
                np.signbit(getattr(reduced, name)[i]), np.signbit(getattr(alone, name)[0])
            )


def test_lagrange_reduction_raises_when_it_cannot_finish():
    # An indefinite matrix is never Lagrange-reduced.
    with pytest.raises(ReductionBudgetError):
        _lagrange_2x2(np.array([[[1.0, 0.0], [0.0, -1.0]]]))[:, :2, :2]


# -- CSV rows ----------------------------------------------------------------


def _csv(path):
    with open(path, newline="", encoding="utf-8") as fh:
        header, *rows = list(csv.reader(fh))
    return header, rows


def _entry(label):
    # "x12" -> (0, 1): 1-based row and column digits after the prefix.
    return int(label[-2]) - 1, int(label[-1]) - 1


@pytest.mark.parametrize("name", ["e4", "sym2"])
def test_bound_csv_cells_are_reprs_of_the_records(name, tmp_path):
    form = tmp_path / f"{name}.json"
    save_form_package(build_sample(name), form)
    out = tmp_path / "bound.csv"
    argv = ["bound", "--form", str(form), "--samples", "300", "--seed", "4"]
    main(argv + ["--kind", "corollary", "--format", "csv", "--out", str(out)])
    package = load_form_package(form)
    constant = estimate_constant(package, SweepConfig(samples=300, seed=4))
    report = verify_growth_bound(
        package, constant, "corollary", config=SweepConfig(samples=300, seed=5)
    )
    header, rows = _csv(out)
    assert header == _point_header(package.n) + ["phi", "rhs", "ratio"]
    where, value, rhs, ratio = report.records
    assert len(rows) == len(where) == 300
    for k, row in enumerate(rows):
        want = [
            float((where[k].real if label[0] == "x" else where[k].imag)[_entry(label)])
            for label in header[:-3]
        ] + [float(value[k]), float(rhs[k]), float(ratio[k])]
        assert row == [repr(v) for v in want]


def test_moderate_csv_cells_are_reprs_of_the_records(e4_package, tmp_path):
    form = tmp_path / "e4.json"
    save_form_package(e4_package, form)
    out = tmp_path / "moderate.csv"
    main(["moderate", "--form", str(form), "--samples", "300", "--seed", "6",
          "--format", "csv", "--out", str(out)])
    package = load_form_package(form)
    constant = estimate_constant(package, SweepConfig(samples=300, seed=6))
    report = verify_moderate_growth(
        package, basis_vector(package.rep, 0), constant,
        config=SweepConfig(samples=300, seed=7),
    )
    header, rows = _csv(out)
    assert header == ["g_11", "g_12", "g_21", "g_22", "phi", "rhs", "ratio"]
    where, value, rhs, ratio = report.records
    assert len(rows) == len(where) == 300
    for k, row in enumerate(rows):
        want = [float(where[k][_entry(label)]) for label in header[:-3]]
        want += [float(value[k]), float(rhs[k]), float(ratio[k])]
        assert row == [repr(v) for v in want]


def test_check_runs_in_sweep_blocks(e4_package, tmp_path, monkeypatch):
    # `check` draws its samples from one generator and checks them block by
    # block: no evaluation sees more than SWEEP_BLOCK points, and the merged
    # report is that of the whole stack checked at once.
    form, out = tmp_path / "e4.json", tmp_path / "check.json"
    save_form_package(e4_package, form)
    whole = check_invariance(
        e4_package, random_siegel_points(1, np.random.default_rng(5), 600, *CHECK_BOX)
    )
    sizes, evaluate = [], forms.evaluate

    def counted(f, z):
        sizes.append(len(z))
        return evaluate(f, z)

    monkeypatch.setattr(forms, "evaluate", counted)
    args = ["check", "--form", str(form), "--samples", "600", "--seed", "5", "--out", str(out)]
    assert main(args) == 0
    assert sizes and max(sizes) <= SWEEP_BLOCK
    assert json.loads(out.read_text(encoding="utf-8")) == asdict(whole)


# -- check_invariance over blocks ----------------------------------------------


def _stacked(blocks):
    """The blocks' points as one batch, with the eigendecompositions they
    were validated with."""
    return PointBatch.from_points(b.point(i) for b in blocks for i in range(len(b)))


def _split(points, sizes):
    """``points`` as consecutive blocks of the given sizes."""
    ends = np.cumsum([0, *sizes]).tolist()
    return [
        PointBatch.from_points(points.point(i) for i in range(a, b))
        for a, b in zip(ends, ends[1:])
    ]


@pytest.mark.parametrize("name", ["e4", "sym2"])
class TestCheckBlocks:
    # check_invariance folds an iterable of blocks into the report of one
    # batch holding every sample.

    def test_generator_of_blocks(self, name):
        package = build_sample(name)
        blocks = list(check_blocks(package.n, SweepConfig(samples=300, seed=2)))
        assert [len(b) for b in blocks] == [SWEEP_BLOCK, 300 - SWEEP_BLOCK]
        report = check_invariance(package, (b for b in blocks))
        assert report == check_invariance(package, _stacked(blocks))
        assert report.samples == 300

    def test_list_of_blocks(self, name):
        package = build_sample(name)
        points = random_siegel_points(package.n, np.random.default_rng(8), 40, *CHECK_BOX)
        blocks = _split(points, [17, 1, 22])
        assert check_invariance(package, blocks) == check_invariance(package, points)

    def test_a_full_block_and_one_point(self, name):
        package = build_sample(name)
        blocks = list(check_blocks(package.n, SweepConfig(samples=SWEEP_BLOCK + 1, seed=4)))
        assert [len(b) for b in blocks] == [SWEEP_BLOCK, 1]
        assert check_invariance(package, blocks) == check_invariance(package, _stacked(blocks))


@pytest.mark.parametrize("samples", [[], iter(())], ids=["list", "iterator"])
def test_check_without_samples_is_rejected(e4_package, samples):
    with pytest.raises(ValueError, match="at least one sample"):
        check_invariance(e4_package, samples)


def test_nan_deviation_survives_later_blocks(e4_package, monkeypatch):
    # A NaN deviation in the first block stays the maximum after the finite
    # deviations of the second (Python's max would drop it), and is no
    # violation.
    blocks = _split(random_siegel_points(1, np.random.default_rng(6), 14, *CHECK_BOX), [5, 9])
    norms = forms.norms

    def nan_in_first_block(rep, values):
        out = norms(rep, values)
        return np.full_like(out, np.nan) if len(out) == 5 else out

    monkeypatch.setattr(forms, "norms", nan_in_first_block)
    report = check_invariance(e4_package, blocks)
    assert math.isnan(report.max_deviation)
    assert math.isfinite(report.threshold)
    assert (report.samples, report.violations) == (14, 0)


def test_check_is_one_library_call(e4_package, tmp_path, monkeypatch):
    # `check` hands its whole seeded block stream to one check_invariance.
    form, out = tmp_path / "e4.json", tmp_path / "check.json"
    save_form_package(e4_package, form)
    calls, check = [], cli.check_invariance

    def counted(package, samples):
        calls.append(1)
        return check(package, samples)

    monkeypatch.setattr(cli, "check_invariance", counted)
    args = ["check", "--form", str(form), "--samples", "600", "--seed", "5", "--out", str(out)]
    assert main(args) == 0
    assert calls == [1]
    report = check(e4_package, check_blocks(1, SweepConfig(samples=600, seed=5)))
    assert json.loads(out.read_text(encoding="utf-8")) == asdict(report)
