"""The batched point path against its N = 1 calls.

Sweeps run blocks of points through ``reduce_batch``, ``phi`` and the
batched right-hand sides; the scalar functions are the N = 1 case of the
same kernels.  These tests check that a block gives what point-by-point
calls give, and that sweeps crossing a block boundary report what a
point-by-point sweep reports.
"""

import math

import numpy as np
import pytest

from nhsiegel.forms import phi
from nhsiegel.growth import (
    RATIO_TOL,
    SAFETY,
    SWEEP_BLOCK,
    SweepConfig,
    corollary_rhs,
    estimate_constant,
    group_blocks,
    lift,
    sturm_rhs,
    verify_growth_bound,
    verify_moderate_growth,
)
from nhsiegel.reps import norm
from nhsiegel.sampling import EIG_HIGH, EIG_LOW, X_SCALE, random_siegel_point, random_siegel_points
from nhsiegel.symplectic import PointBatch, SymplecticMatrix, reduce_batch, reduce_to_fundamental

FORMS = ["e4_package", "e2star_package", "sym2_package"]


def _adversarial(n, count=200, seed=7):
    return random_siegel_points(n, np.random.default_rng(seed), count)


def _assert_rel(got, want, rel=1e-12):
    got, want = np.asarray(got), np.asarray(want)
    worst = np.max(np.abs(got - want) / np.abs(want))
    assert worst <= rel, worst


@pytest.mark.parametrize("form", FORMS)
def test_block_reduction_matches_single_points(form, request):
    package = request.getfixturevalue(form)
    points = _adversarial(package.n)
    gammas, reduced = reduce_batch(points)
    for i in range(len(points)):
        gamma, z_red = reduce_to_fundamental(points.point(i))
        np.testing.assert_array_equal(gammas[i], gamma.mat)
        assert np.max(np.abs(reduced.mat[i] - z_red.mat)) <= 1e-12 * np.max(np.abs(z_red.mat))


@pytest.mark.parametrize("form", FORMS)
def test_block_phi_and_rhs_match_single_points(form, request):
    package = request.getfixturevalue(form)
    lam1 = package.lambda1
    raw = _adversarial(package.n)
    for points in (raw, reduce_batch(raw)[1]):
        singles = [points.point(i) for i in range(len(points))]
        _assert_rel(phi(package, points), [phi(package, z) for z in singles])
        _assert_rel(sturm_rhs(points, lam1), [sturm_rhs(z.Y, lam1) for z in singles])
        _assert_rel(corollary_rhs(points, lam1), [corollary_rhs(z.Y, lam1) for z in singles])


def test_point_batch_round_trip(rng):
    singles = [random_siegel_point(2, rng) for _ in range(5)]
    batch = PointBatch.from_points(singles)
    for i, z in enumerate(singles):
        np.testing.assert_array_equal(batch.point(i).X, z.X)
        np.testing.assert_array_equal(batch.point(i).Y, z.Y)
        np.testing.assert_allclose(batch.y_sqrt[i] @ batch.y_sqrt[i], z.Y, atol=1e-12)
    np.testing.assert_array_equal(batch.point(-1).Y, singles[-1].Y)


# Point-by-point references: the sweeps as the scalar functions run them.


def _reference_constant(package, config):
    rng = np.random.default_rng(config.seed)
    worst = 0.0
    for _ in range(config.samples):
        z = random_siegel_point(package.n, rng, EIG_LOW, EIG_HIGH, X_SCALE)
        _, z_red = reduce_to_fundamental(z)
        worst = max(worst, phi(package, z_red) / sturm_rhs(z_red.Y, package.lambda1))
    return SAFETY * worst


def _reference_bound(package, constant, rhs_fn, config):
    rng = np.random.default_rng(config.seed)
    ratios, points = [], []
    for _ in range(config.samples):
        z = random_siegel_point(package.n, rng, EIG_LOW, EIG_HIGH, X_SCALE)
        ratios.append(phi(package, z) / (constant * rhs_fn(z.Y, package.lambda1)))
        points.append({"X": z.X.tolist(), "Y": z.Y.tolist()})
    worst = int(np.argmax(ratios))
    violations = sum(r > 1.0 + RATIO_TOL for r in ratios)
    return ratios[worst], points[worst], violations


@pytest.mark.parametrize("form", FORMS)
@pytest.mark.parametrize("kind", ["theorem", "corollary"])
def test_sweeps_across_a_block_boundary(form, kind, request):
    package = request.getfixturevalue(form)
    config = SweepConfig(samples=SWEEP_BLOCK + 1, seed=5)
    constant = estimate_constant(package, config)
    assert constant == pytest.approx(_reference_constant(package, config), rel=1e-12)
    # A constant below the estimate makes some samples violate the bound.
    for c in (constant, 0.5 * constant):
        report = verify_growth_bound(package, c, kind, config=config)
        rhs_fn = sturm_rhs if kind == "theorem" else corollary_rhs
        worst_ratio, worst_point, violations = _reference_bound(package, c, rhs_fn, config)
        assert report.samples == SWEEP_BLOCK + 1
        assert report.violations == violations
        assert report.worst_ratio == pytest.approx(worst_ratio, rel=1e-12)
        assert report.worst_point == worst_point
        assert len(report.records.ratio) == SWEEP_BLOCK + 1


def test_moderate_sweep_across_a_block_boundary(e4_package):
    config = SweepConfig(samples=SWEEP_BLOCK + 1, seed=9)
    report = verify_moderate_growth(e4_package, 1.0, config=config)
    gs = [SymplecticMatrix(g) for block in group_blocks(1, config) for g in block]
    ratios = [
        # e4 has n = 1 and lambda1 = 4, so the moderate factor is 1.
        norm(lift(e4_package, g)) / float(np.sum(g.mat * g.mat)) ** 2.0
        for g in gs
    ]
    assert report.samples == len(ratios) == SWEEP_BLOCK + 1
    assert report.worst_ratio == pytest.approx(max(ratios), rel=1e-12)
    _assert_rel(report.records.ratio, ratios)
    assert report.violations == sum(r > 1.0 + RATIO_TOL for r in ratios)
    assert math.isfinite(report.worst_ratio)
