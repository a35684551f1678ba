"""The reduction loops against frozen copies of the versions that formed the
step matrix (u  t u^-T; 0 u^-T) in full, took every product on every step,
masked the first Lagrange round and wrote gamma and the point back on every
step where some point stops.  The current loops skip that work where it
cannot change a result; gamma and every float must come out bit for bit the
same, signed zeros included.
"""

import numpy as np
import pytest

from nhsiegel.errors import ReductionBudgetError
from nhsiegel.linalg import _t
from nhsiegel.sampling import random_siegel_points
from nhsiegel.symplectic import (
    _CANDIDATES,
    _INT_EYE,
    _INVERT_ROWS,
    _LAGRANGE_TOL,
    _MOVE_BELOW,
    REDUCTION_BUDGET,
    PointBatch,
    _adjugate,
    _blocks,
    _candidate_dets,
    _lagrange_2x2,
    _reduce_1,
    _reduce_2,
)

# -- frozen copies -------------------------------------------------------------


def frozen_lagrange_2x2(y):
    y11, y12, y22 = y[:, 0, 0], y[:, 0, 1], y[:, 1, 1]
    m, live = _INT_EYE[4][None].repeat(len(y), axis=0), np.ones(len(y), dtype=bool)
    for _ in range(64):
        swap = live & (y11 > y22 * (1.0 + 1e-15))
        swapped = np.count_nonzero(swap)
        if swapped:
            y11, y22 = np.where(swap, y22, y11), np.where(swap, y11, y22)
            m[swap] = m[swap].take([1, 0, 3, 2], axis=1)
        r = np.where(live, np.rint(y12 / y11), 0.0)
        if np.count_nonzero(r):
            ri = r.astype(np.int64)[:, None]
            m[:, 1] -= ri * m[:, 0]
            m[:, 2] += ri * m[:, 3]
            y12, y22 = y12 - r * y11, y22 - r * y12
            y22 = y22 - r * y12
        elif not swapped and np.count_nonzero(y11 > 0.0) == len(y11):
            return m
        live &= ~(
            (2.0 * np.abs(y12) <= y11 * (1.0 + _LAGRANGE_TOL))
            & (y11 <= y22 * (1.0 + _LAGRANGE_TOL))
        )
        if not np.count_nonzero(live):
            return m
    raise ReductionBudgetError("Lagrange reduction of Im(Z) did not converge within 64 rounds")


def frozen_reduce_1(zc, budget):
    live, z = np.arange(len(zc)), zc.reshape(-1)
    g = _INT_EYE[2][None].repeat(len(z), axis=0)
    gamma, last, steps = np.empty_like(g), np.empty_like(z), 0
    while live.size:
        if steps >= budget:
            raise ReductionBudgetError(f"reduction did not stabilise within {budget} steps")
        steps += 1
        t = -np.rint(z.real)
        g[:, 0] += t.astype(np.int64)[:, None] * g[:, 1]
        z += t
        moved = z.real**2 + z.imag**2 < _MOVE_BELOW
        if np.count_nonzero(moved) < len(moved):
            gamma[live], last[live] = g, z
            live = live[moved]
            if not live.size:
                break
            g, z = g[moved], z[moved]
        g, z = g[:, ::-1] * _INVERT_ROWS, -1.0 / z
    return gamma, last[:, None, None]


def frozen_reduce_2(zc, budget):
    a, b, c, d = (blk.astype(complex) for blk in _blocks(_CANDIDATES, 2))
    live, g = np.arange(len(zc)), _INT_EYE[4][None].repeat(len(zc), axis=0)
    gamma, last, steps = np.empty_like(g), np.empty_like(zc), 0
    while live.size:
        if steps >= budget:
            raise ReductionBudgetError(f"reduction did not stabilise within {budget} steps")
        steps += 1
        m = frozen_lagrange_2x2(zc.imag)
        if np.count_nonzero(m[:, :2, :2] != _INT_EYE[2]):
            uc = m[:, :2, :2].astype(complex)
            zc = uc @ zc @ _t(uc)
            zc = (zc + _t(zc)) / 2.0
        t = -np.rint(zc.real)
        m[:, :2, 2:] = t.astype(np.int64) @ m[:, 2:, 2:]
        g = m if steps == 1 else m @ g
        zc += t
        dets = _candidate_dets(zc)
        det_sq = dets.real**2 + dets.imag**2
        best, moved = det_sq.argmin(axis=1), det_sq.min(axis=1) < _MOVE_BELOW
        if np.count_nonzero(moved) < len(moved):
            gamma[live], last[live] = g, zc
            live = live[moved]
            if not live.size:
                break
            g, zc, best = g[moved], zc[moved], best[moved]
        g, den = _CANDIDATES[best] @ g, dets[moved, best][:, None, None]
        w = (a[best] @ zc + b[best]) @ _adjugate(c[best] @ zc + d[best]) / den
        zc = (w + _t(w)) / 2.0
    return gamma, last


# -- comparisons ---------------------------------------------------------------


def assert_same_bits(got, want):
    got, want = np.asarray(got), np.asarray(want)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def assert_reduces_as_frozen(points):
    """Both loops on copies of the points' complex stack: same gamma, same
    point, byte for byte."""
    loop, frozen = (_reduce_1, frozen_reduce_1) if points.n == 1 else (_reduce_2, frozen_reduce_2)
    gamma, last = loop(points.mat, REDUCTION_BUDGET)
    want_gamma, want_last = frozen(points.mat, REDUCTION_BUDGET)
    assert_same_bits(gamma, want_gamma)
    assert_same_bits(last, want_last)


def batch(x, y):
    return PointBatch(np.array(x, dtype=float), np.array(y, dtype=float))


# -- bench-like points and large batches ----------------------------------------


@pytest.mark.parametrize("n", [1, 2])
def test_single_bench_points(n):
    # The benchmark's query points: X uniform in [-5, 5], Y's eigenvalues
    # log-uniform in [1e-2, 1e2]; each reduced alone, as a query does.
    points = random_siegel_points(n, np.random.default_rng(900 + n), 300)
    for i in range(len(points)):
        assert_reduces_as_frozen(points.point(i).batch)


@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("eig", [(1e-2, 1e2), (1e-6, 1e6)])
def test_large_batches(n, eig):
    assert_reduces_as_frozen(random_siegel_points(n, np.random.default_rng(910 + n), 2000, *eig))


# -- the first Lagrange round --------------------------------------------------

# Y needing a swap in the first round (y11 > y22), Y needing none.
SWAPS = [[[3.0, 0.4], [0.4, 1.0]], [[5.0, -2.2], [-2.2, 1.5]], [[2.0, 0.9], [0.9, 0.5]]]
STAYS = [[[1.0, 0.3], [0.3, 2.0]], [[1.0, 2.7], [2.7, 9.0]], [[0.7, -0.0], [-0.0, 0.7]]]


@pytest.mark.parametrize(
    "ys, swapping",
    [(SWAPS, 3), (SWAPS[:2] + STAYS[:1], 2), (STAYS[:1] + SWAPS[2:] + STAYS[2:], 1), (STAYS, 0)],
    ids=["every", "some", "one", "none"],
)
def test_first_lagrange_round(ys, swapping):
    y = np.array(ys)
    assert np.count_nonzero(y[:, 0, 0] > y[:, 1, 1] * (1.0 + 1e-15)) == swapping
    assert_same_bits(_lagrange_2x2(y), frozen_lagrange_2x2(y))
    for i in range(len(y)):
        assert_same_bits(_lagrange_2x2(y[i : i + 1]), frozen_lagrange_2x2(y[i : i + 1]))
    x = np.array([[[0.3, -1.7], [-1.7, 2.4]], [[0.0, 0.5], [0.5, -0.0]], [[-3.1, 0.2], [0.2, 0.45]]])
    assert_reduces_as_frozen(batch(x, y))


# Reduced after the first round, but at the edge of the tests a later round
# applies: TIE_SWAP ends with y22 about 1e-13 below y11 = 1, so the swap
# test still holds for it, and TIE_SHEAR with y12 / y11 just above 1/2, so
# round(y12 / y11) is 1.  Both are within _LAGRANGE_TOL of reduced.  MORE
# needs a second round (a swap after its shear), during which the other two
# must stay as they are.
TIE_SWAP = [[1.0, 1.1], [1.1, 2.2 - 1e-13]]
TIE_SHEAR = [[1.496571693798853, 3.7414292344971325], [3.7414292344971325, 12.0]]
MORE = [[4.0, 4.2], [4.2, 5.4]]


def test_points_reduced_in_the_first_round_stay_out_of_later_rounds():
    y = np.array([TIE_SWAP, TIE_SHEAR, MORE])
    m = _lagrange_2x2(y)
    assert_same_bits(m, frozen_lagrange_2x2(y))
    for i in range(len(y)):
        np.testing.assert_array_equal(m[i], frozen_lagrange_2x2(y[i : i + 1])[0])
    # Their u is that of one shear: TIE_SWAP's by 1, TIE_SHEAR's by 2.
    np.testing.assert_array_equal(m[:2, :2, :2], [[[1, 0], [-1, 1]], [[1, 0], [-2, 1]]])
    # On its own a tie point is done in one round; in the batch it rides
    # along a second, which must leave it alone.
    np.testing.assert_array_equal(m[2, :2, :2], [[-1, 1], [1, 0]])


# -- the first stopping step -----------------------------------------------------

# Points in the domain (the first step is a stopping step for each), and
# points with a small Im(Z) that take several steps.
INSIDE_X = [[[0.3, -0.2], [-0.2, 0.45]], [[-0.0, -0.0], [-0.0, 0.0]], [[-0.5, 0.5], [0.5, 0.25]]]
INSIDE_Y = [[[1.5, 0.4], [0.4, 2.0]], [[2.0, -0.0], [-0.0, 3.0]], [[1.2, -0.6], [-0.6, 1.3]]]
DEEP_X = [[[0.3, 1.2], [1.2, -2.4]], [[4.1, -0.3], [-0.3, 0.7]], [[-1.6, 2.2], [2.2, 3.9]]]
DEEP_Y = [[[0.02, 0.005], [0.005, 0.03]], [[0.1, -0.04], [-0.04, 0.3]], [[0.004, 0.0], [0.0, 0.09]]]


@pytest.mark.parametrize(
    "xs, ys",
    [
        (INSIDE_X, INSIDE_Y),
        ([DEEP_X[0]] * 3, [DEEP_Y[0]] * 3),
        (INSIDE_X[:2] + DEEP_X[:1], INSIDE_Y[:2] + DEEP_Y[:1]),
        (DEEP_X[1:2] + INSIDE_X[2:], DEEP_Y[1:2] + INSIDE_Y[2:]),
        (DEEP_X, DEEP_Y),
    ],
    ids=["every-at-once", "every-later", "some", "one-moves", "none"],
)
def test_first_stopping_step_degree_2(xs, ys):
    points = batch(xs, ys)
    assert_reduces_as_frozen(points)
    for i in range(len(points)):
        assert_reduces_as_frozen(points.point(i).batch)


@pytest.mark.parametrize(
    "xs, ys",
    [
        ([0.3, -0.0, -0.5], [1.5, 2.0, 1.2]),
        ([0.41] * 3, [0.003] * 3),
        ([0.3, -0.0, 0.41], [1.5, 2.0, 0.003]),
        ([2.3, 0.1, -0.3], [0.002, 0.05, 0.4]),
    ],
    ids=["every-at-once", "every-later", "some", "none"],
)
def test_first_stopping_step_degree_1(xs, ys):
    points = batch(np.array(xs)[:, None, None], np.array(ys)[:, None, None])
    assert_reduces_as_frozen(points)
    for i in range(len(points)):
        assert_reduces_as_frozen(points.point(i).batch)


@pytest.mark.parametrize("n", [1, 2])
def test_empty_stack(n):
    empty = np.zeros((0, n, n), dtype=complex)
    loop, frozen = (_reduce_1, frozen_reduce_1) if n == 1 else (_reduce_2, frozen_reduce_2)
    for got, want in zip(loop(empty.copy(), 0), frozen(empty.copy(), 0)):
        assert_same_bits(got, want)
