import math
import warnings

import numpy as np
import pytest

from conftest import gl_embedding, random_symplectic
from nhsiegel import symplectic
from nhsiegel.errors import ReductionBudgetError
from nhsiegel.linalg import eigenvalues_sym, in_V_delta
from nhsiegel.sampling import (
    random_compact,
    random_siegel_point,
    random_siegel_points,
)
from nhsiegel.symplectic import (
    _LAGRANGE_TOL,
    _MOVE_BELOW,
    FUNDAMENTAL_DOMAIN_DELTA,
    SYMPLECTIC_TOL,
    PointBatch,
    SiegelPoint,
    SymplecticMatrix,
    _candidate_dets,
    _lagrange_2x2,
    act,
    automorphy_factor,
    compact_from_unitary,
    delta_for_degree,
    embedded_inversion,
    from_point,
    inversion,
    is_symplectic,
    reduce_batch,
    reduce_to_fundamental,
    symplectic_form,
    translation,
)


def gauss_reduce_oracle(x, y):
    """Classical degree-1 reduction: translate to |x| <= 1/2, invert while
    |z| < 1.  Independent of the library implementation."""
    a, b, c, d = 1, 0, 0, 1
    for _ in range(10000):
        t = -round(x)
        if t != 0:
            a, b = a + t * c, b + t * d
            x += t
        if x * x + y * y < 1.0 - 1e-15:
            # z -> -1/z
            nrm = x * x + y * y
            x, y = -x / nrm, y / nrm
            a, b, c, d = -c, -d, a, b
        else:
            return x, y, (a, b, c, d)
    raise AssertionError("oracle did not terminate")


class TestIsSymplectic:
    def test_identity(self):
        assert is_symplectic(np.eye(4))

    def test_j(self):
        n = 2
        j = np.zeros((2 * n, 2 * n))
        j[:n, n:] = -np.eye(n)
        j[n:, :n] = np.eye(n)
        assert is_symplectic(j)

    def test_rescaled_block(self):
        assert is_symplectic(np.diag([2.0, 0.5]))

    def test_not_symplectic(self):
        assert not is_symplectic(2.0 * np.eye(4))
        assert not is_symplectic(np.eye(3))

    def test_tolerance_is_symplectic_tol(self):
        # diag(1 + e, 1) has m^T J m - J = e J: off by e in two entries.
        assert is_symplectic(np.diag([1.0 + SYMPLECTIC_TOL / 2, 1.0]))
        assert not is_symplectic(np.diag([1.0 + 2 * SYMPLECTIC_TOL, 1.0]))


class TestAct:
    def test_identity(self, rng):
        z = random_siegel_point(2, rng)
        w = act(SymplecticMatrix(np.eye(4)), z)
        np.testing.assert_allclose(w.mat, z.mat, atol=1e-14)

    def test_translation(self, rng):
        z = random_siegel_point(2, rng)
        b = np.array([[1.0, 0.5], [0.5, -2.0]])
        w = act(translation(b), z)
        np.testing.assert_allclose(w.X, z.X + b, atol=1e-14)
        np.testing.assert_allclose(w.Y, z.Y, atol=1e-14)

    def test_inversion_fixes_i(self):
        z = SiegelPoint.base_point(1)
        w = act(inversion(1), z)
        np.testing.assert_allclose(w.mat, z.mat, atol=1e-14)

    def test_gl_congruence(self, rng):
        z = random_siegel_point(2, rng)
        u = np.array([[1.0, 1.0], [0.0, 1.0]])
        w = act(gl_embedding(u), z)
        np.testing.assert_allclose(w.mat, u @ z.mat @ u.T, atol=1e-12)

    def test_preserves_half_space(self, rng):
        for _ in range(200):
            n = int(rng.integers(1, 3))
            g = random_symplectic(n, rng)
            z = random_siegel_point(n, rng, eig_low=0.1, eig_high=10.0)
            w = act(g, z)  # constructor asserts positive definiteness
            assert eigenvalues_sym(w.Y)[-1] > 0

    def test_composition_order(self, rng):
        for _ in range(100):
            n = int(rng.integers(1, 3))
            g1 = random_symplectic(n, rng)
            g2 = random_symplectic(n, rng)
            z = random_siegel_point(n, rng, eig_low=0.1, eig_high=10.0)
            lhs = act(g1 @ g2, z).mat
            rhs = act(g1, act(g2, z)).mat
            assert np.max(np.abs(lhs - rhs)) <= 1e-9 * (1.0 + np.max(np.abs(lhs)))


class TestAutomorphyFactor:
    def test_translation_is_identity(self, rng):
        z = random_siegel_point(2, rng)
        b = np.array([[1.0, 0.0], [0.0, 3.0]])
        np.testing.assert_allclose(automorphy_factor(translation(b), z), np.eye(2))

    def test_degree_one_inversion(self):
        z = SiegelPoint(np.array([[0.4]]), np.array([[2.0]]))
        j = automorphy_factor(inversion(1), z)
        assert j[0, 0] == pytest.approx(0.4 + 2.0j)

    def test_block_diagonal(self):
        y0 = np.array([[2.0, 0.5], [0.5, 1.0]])
        g = from_point(SiegelPoint(np.zeros((2, 2)), y0))
        z = SiegelPoint.base_point(2)
        from nhsiegel.linalg import inverse, sqrt_posdef

        np.testing.assert_allclose(
            automorphy_factor(g, z), inverse(sqrt_posdef(y0)), atol=1e-12
        )

    def test_cocycle(self, rng):
        for _ in range(200):
            n = int(rng.integers(1, 3))
            g1 = random_symplectic(n, rng)
            g2 = random_symplectic(n, rng)
            z = random_siegel_point(n, rng, eig_low=0.1, eig_high=10.0)
            lhs = automorphy_factor(g1 @ g2, z)
            rhs = automorphy_factor(g1, act(g2, z)) @ automorphy_factor(g2, z)
            assert np.max(np.abs(lhs - rhs)) <= 1e-9 * (1.0 + np.max(np.abs(lhs)))


class TestFromPoint:
    def test_base_point(self):
        g = from_point(SiegelPoint.base_point(2))
        np.testing.assert_allclose(g.mat, np.eye(4), atol=1e-14)

    def test_pure_translation(self):
        x = np.array([[0.3, -1.0], [-1.0, 0.8]])
        g = from_point(SiegelPoint(x, np.eye(2)))
        np.testing.assert_allclose(g.mat, translation(x).mat, atol=1e-14)

    def test_degree_one_scaling(self):
        g = from_point(SiegelPoint(np.zeros((1, 1)), np.array([[2.0]])))
        np.testing.assert_allclose(g.mat, np.diag([math.sqrt(2), 1 / math.sqrt(2)]), atol=1e-14)

    def test_sends_base_point_to_z(self, rng):
        for _ in range(100):
            n = int(rng.integers(1, 3))
            z = random_siegel_point(n, rng)
            w = act(from_point(z), SiegelPoint.base_point(n))
            assert np.max(np.abs(w.mat - z.mat)) <= 1e-10 * (1.0 + np.max(np.abs(z.mat)))


class TestGroupNorm:
    # The norm sqrt(Tr(g^T g)) of the moderate-growth bound is the Frobenius
    # norm of g.mat.
    def test_right_compact_invariance(self, rng):
        for _ in range(200):
            n = int(rng.integers(1, 3))
            g = random_symplectic(n, rng)
            k = random_compact(n, rng)
            size = np.linalg.norm(g.mat)
            assert abs(np.linalg.norm((g @ k).mat) - size) <= 1e-9 * size


class TestCompact:
    def test_symplectic_and_orthogonal(self, rng):
        from nhsiegel.sampling import random_unitary

        for n in (1, 2):
            u = random_unitary(n, rng)
            k = compact_from_unitary(u)
            assert is_symplectic(k.mat)
            np.testing.assert_allclose(k.mat @ k.mat.T, np.eye(2 * n), atol=1e-12)

    def test_stabilises_base_point(self, rng):
        for n in (1, 2):
            k = random_compact(n, rng)
            w = act(k, SiegelPoint.base_point(n))
            np.testing.assert_allclose(w.mat, SiegelPoint.base_point(n).mat, atol=1e-10)


class TestReduce:
    def test_horizontal_shift(self):
        z = SiegelPoint(np.array([[5.0]]), np.array([[1.0]]))
        gamma, z_red = reduce_to_fundamental(z)
        np.testing.assert_allclose(gamma.mat, [[1.0, -5.0], [0.0, 1.0]])
        np.testing.assert_allclose(z_red.mat, [[1j]], atol=1e-12)

    def test_against_gauss_oracle(self, rng):
        for _ in range(300):
            x = float(rng.uniform(-5, 5))
            y = float(np.exp(rng.uniform(np.log(1e-2), np.log(1e2))))
            z = SiegelPoint(np.array([[x]]), np.array([[y]]))
            gamma, z_red = reduce_to_fundamental(z)
            ox, oy, _ = gauss_reduce_oracle(x, y)
            xr, yr = float(z_red.X[0, 0]), float(z_red.Y[0, 0])
            assert abs(xr) <= 0.5 + 1e-9
            assert xr * xr + yr * yr >= 1.0 - 1e-9
            # Heights agree; x may differ by sign on the boundary orbit.
            assert yr == pytest.approx(oy, rel=1e-9)

    def test_small_point_example(self):
        z = SiegelPoint(np.array([[0.3]]), np.array([[0.2]]))
        gamma, z_red = reduce_to_fundamental(z)
        assert abs(z_red.X[0, 0]) <= 0.5 + 1e-12
        assert abs(complex(z_red.mat[0, 0])) >= 1.0 - 1e-12

    def test_already_reduced_identity(self):
        z = SiegelPoint(np.array([[0.1]]), np.array([[2.0]]))
        gamma, z_red = reduce_to_fundamental(z)
        np.testing.assert_allclose(gamma.mat, np.eye(2))
        np.testing.assert_allclose(z_red.mat, z.mat)

    @pytest.mark.parametrize("n", [1, 2])
    def test_consistency_and_height_floor(self, rng, n):
        delta = delta_for_degree(n) - 1e-9
        for _ in range(300):
            z = random_siegel_point(n, rng)
            gamma, z_red = reduce_to_fundamental(z)
            assert np.max(np.abs(act(gamma, z).mat - z_red.mat)) <= 1e-9
            assert np.max(np.abs(gamma.mat - np.round(gamma.mat))) == 0.0
            assert np.max(np.abs(z_red.X)) <= 0.5 + 1e-9
            assert in_V_delta(z_red.Y, delta, tol=1e-12)

    @pytest.mark.parametrize("n", [1, 2])
    def test_idempotent_height(self, rng, n):
        for _ in range(50):
            z = random_siegel_point(n, rng)
            _, z_red = reduce_to_fundamental(z)
            _, z_red2 = reduce_to_fundamental(z_red)
            d1 = float(np.prod(eigenvalues_sym(z_red.Y)))
            d2 = float(np.prod(eigenvalues_sym(z_red2.Y)))
            assert d2 == pytest.approx(d1, rel=1e-9)

    def test_budget_error(self, monkeypatch):
        monkeypatch.setattr(symplectic, "REDUCTION_BUDGET", 1)
        z = SiegelPoint(np.array([[0.3]]), np.array([[1e-2]]))
        with pytest.raises(ReductionBudgetError):
            reduce_to_fundamental(z)

    def test_unsupported_degree(self):
        z = SiegelPoint.base_point(3)
        with pytest.raises(ValueError):
            reduce_to_fundamental(z)

    def test_delta_table(self):
        assert delta_for_degree(1) == pytest.approx(math.sqrt(3) / 2)
        # Proved: sqrt(3)/4 less the slack of the two stopping tolerances.
        assert math.sqrt(3) / 4 - 1e-9 <= delta_for_degree(2) <= math.sqrt(3) / 4
        assert FUNDAMENTAL_DOMAIN_DELTA[1] > FUNDAMENTAL_DOMAIN_DELTA[2]


def _lagrange_by_products(y):
    # Lagrange reduction with each swap and shear applied as the 2x2
    # products t y t^T, one stack at a time.
    u = np.zeros((len(y), 2, 2), dtype=np.int64) + np.eye(2, dtype=np.int64)
    live = np.ones(len(y), dtype=bool)
    y = y.copy()
    for _ in range(64):
        swap = live & (y[:, 0, 0] > y[:, 1, 1] * (1.0 + 1e-15))
        u[swap] = u[swap, ::-1]
        y[swap] = y[swap, ::-1, ::-1]
        r = np.where(live, (y[:, 0, 1] / y[:, 0, 0]).round(), 0.0)
        t = np.eye(2) - r[:, None, None] * np.array([[0.0, 0.0], [1.0, 0.0]])
        u = t.astype(np.int64) @ u
        y = t @ y @ np.swapaxes(t, -1, -2)
        live &= ~(
            (2.0 * np.abs(y[:, 0, 1]) <= y[:, 0, 0] * (1.0 + _LAGRANGE_TOL))
            & (y[:, 0, 0] <= y[:, 1, 1] * (1.0 + _LAGRANGE_TOL))
        )
        if not live.any():
            return u
    raise AssertionError("reference Lagrange reduction did not terminate")


def _u_of_step(m):
    # u of the step matrices diag(u, u^-T), checked to be of that form.
    u = m[:, :2, :2]
    np.testing.assert_array_equal(m[:, 2:, 2:], np.round(np.linalg.inv(u).swapaxes(-1, -2)))
    assert not m[:, :2, 2:].any() and not m[:, 2:, :2].any()
    return u


@pytest.fixture
def reduction_work(monkeypatch):
    """Counts the matrices the symplectic module decomposes and the
    numpy.linalg.solve calls."""
    import nhsiegel.symplectic

    counts = {"decomposed": 0, "solves": 0}
    eigh, solve = nhsiegel.symplectic._eigh, np.linalg.solve

    def counting_eigh(a):
        counts["decomposed"] += len(a)
        return eigh(a)

    def counting_solve(*args, **kwargs):
        counts["solves"] += 1
        return solve(*args, **kwargs)

    monkeypatch.setattr(nhsiegel.symplectic, "_eigh", counting_eigh)
    monkeypatch.setattr(np.linalg, "solve", counting_solve)
    return counts


class TestReducedPoint:
    """The reduced point is the last iterate of the reduction: it satisfies
    the stopping rule the floors are proved from, and forming it takes one
    eigensolve per point and no solve."""

    @pytest.mark.parametrize("n", [1, 2])
    def test_batch_decomposes_each_point_once_and_solves_nothing(self, reduction_work, n):
        points = random_siegel_points(n, np.random.default_rng(30 + n), 200)
        reduction_work.update(decomposed=0, solves=0)
        reduce_batch(points)
        assert reduction_work == {"decomposed": 200, "solves": 0}

    @pytest.mark.parametrize("n", [1, 2])
    def test_single_point_decomposed_once_and_solves_nothing(self, reduction_work, rng, n):
        for _ in range(20):
            z = random_siegel_point(n, rng)
            reduction_work.update(decomposed=0, solves=0)
            reduce_to_fundamental(z)
            assert reduction_work == {"decomposed": 1, "solves": 0}

    @pytest.mark.parametrize("n", [1, 2])
    def test_satisfies_the_stopping_rule(self, n):
        points = random_siegel_points(n, np.random.default_rng(40 + n), 10000)
        gamma, reduced = reduce_batch(points)
        assert np.abs(reduced.X).max() <= 0.5
        # The inversion candidates' 1 / gain |det(C Z + D)|^2: |z|^2 in degree 1.
        det = reduced.mat[:, 0, 0] if n == 1 else _candidate_dets(reduced.mat)
        assert (det.real**2 + det.imag**2).min() >= _MOVE_BELOW
        if n == 2:
            y11, y12, y22 = reduced.Y[:, 0, 0], reduced.Y[:, 0, 1], reduced.Y[:, 1, 1]
            assert np.all(2.0 * np.abs(y12) <= y11 * (1.0 + _LAGRANGE_TOL))
            assert np.all(y11 <= y22 * (1.0 + _LAGRANGE_TOL))
        assert reduced.eigvals[:, -1].min() >= delta_for_degree(n) - 1e-12
        # The same point as gamma . Z, up to rounding.
        diff = np.abs(act(gamma, points).mat - reduced.mat).max(axis=(1, 2))
        assert np.all(diff <= 1e-12 * np.maximum(1.0, np.abs(reduced.mat).max(axis=(1, 2))))

    def test_stops_where_none_of_the_three_inversions_gains(self):
        # A point whose reduction stops where an inversion after a unit
        # translation, Z -> -(Z + T)^{-1}, would still raise det Im(Z): the
        # stopping rule reads the full inversion and the two embedded ones only.
        x = [[-3.4296748689809564, -1.7177614646504904], [-1.7177614646504904, -4.968360486804282]]
        y = [[1.0554992368439735, 0.562966705790521], [0.562966705790521, 1.1112723373632976]]
        gamma, reduced = reduce_to_fundamental(SiegelPoint(x, y))
        np.testing.assert_array_equal(
            gamma.mat, [[-1, 1, -2, 3], [1, 0, 3, 1], [0, 0, 0, 1], [0, 0, 1, 1]]
        )
        z = reduced.mat
        assert abs(z[0, 0] * z[1, 1] - z[0, 1] ** 2) ** 2 >= _MOVE_BELOW
        assert min(abs(z[0, 0]) ** 2, abs(z[1, 1]) ** 2) >= _MOVE_BELOW
        assert eigenvalues_sym(reduced.Y)[-1] >= delta_for_degree(2)
        units = [np.array([[a, b], [b, c]]) for a in (-1, 0, 1) for b in (-1, 0, 1) for c in (-1, 0, 1)]
        assert min(abs(np.linalg.det(z + t)) ** 2 for t in units if t.any()) < _MOVE_BELOW

    def test_lagrange_matches_the_product_form(self):
        rng = np.random.default_rng(50)
        count = 10000
        theta = rng.uniform(0.0, np.pi, count)
        c, s = np.cos(theta), np.sin(theta)
        q = np.stack([np.stack([c, -s], axis=-1), np.stack([s, c], axis=-1)], axis=-2)
        # Condition numbers up to 1e8, the smaller eigenvalue log-uniform.
        low = 10.0 ** rng.uniform(-4.0, 4.0, count)
        eig = np.stack([low, low * 10.0 ** rng.uniform(0.0, 8.0, count)], axis=-1)
        y = (q * eig[:, None, :]) @ np.swapaxes(q, -1, -2)
        y = (y + np.swapaxes(y, -1, -2)) / 2.0
        np.testing.assert_array_equal(_u_of_step(_lagrange_2x2(y)), _lagrange_by_products(y))

    def test_lagrange_matches_the_product_form_at_ties(self):
        # After the first shear y22 lies within 8 ulps of y11 / (1 + 1e-12),
        # where the stopping test turns, so a y22 rounded in another order
        # (say y22 + r (r y11 - 2 y12)) changes u for about a sixth of them.
        rng = np.random.default_rng(51)
        count = 10000
        y11 = rng.uniform(1.0, 2.0, count)
        r = rng.integers(1, 100, count).astype(float)
        sheared = rng.uniform(-0.45, 0.45, count) * y11
        target = y11 / (1.0 + 1e-12) * (1.0 + rng.integers(-8, 9, count) * 2.0**-52)
        y12 = sheared + r * y11
        y22 = target + r * y12 + r * sheared
        y = np.stack([np.stack([y11, y12], axis=-1), np.stack([y12, y22], axis=-1)], axis=-2)
        np.testing.assert_array_equal(_u_of_step(_lagrange_2x2(y)), _lagrange_by_products(y))

    def test_gamma_checked_exactly(self):
        gamma, _ = reduce_to_fundamental(SiegelPoint(np.array([[0.3]]), np.array([[0.2]])))
        assert is_symplectic(gamma.mat)
        assert not gamma.mat.flags.writeable
        with pytest.raises(ValueError):
            SymplecticMatrix._integral(2 * np.eye(2, dtype=np.int64))


class TestTypes:
    def test_siegel_point_needs_posdef(self):
        with pytest.raises(ValueError, match=r"^imaginary part is not positive definite \(min eigenvalue -1\.000e\+00\)$"):
            SiegelPoint(np.zeros((2, 2)), np.diag([1.0, -1.0]))

    def test_siegel_point_needs_symmetric(self):
        with pytest.raises(ValueError):
            SiegelPoint(np.array([[0.0, 1.0], [0.0, 0.0]]), np.eye(2))

    def test_symplectic_matrix_validates(self):
        with pytest.raises(ValueError):
            SymplecticMatrix(2.0 * np.eye(4))

    def test_blocks(self):
        g = inversion(2).mat
        np.testing.assert_allclose(g[:2, 2:], -np.eye(2))
        np.testing.assert_allclose(g[2:, :2], np.eye(2))
        np.testing.assert_allclose(g[:2, :2], np.zeros((2, 2)))

    def test_embedded_inversion_is_symplectic(self):
        for n in (2, 3):
            for i in range(1, n + 1):
                assert is_symplectic(embedded_inversion(n, i).mat)

    def test_symplectic_form_square(self):
        j = symplectic_form(2)
        np.testing.assert_allclose(j @ j, -np.eye(4))


class TestNonFiniteX:
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_point_batch_rejects_non_finite_x(self, bad):
        x = np.zeros((3, 2, 2))
        x[1, 0, 0] = bad
        with pytest.raises(ValueError, match="X has non-finite"):
            PointBatch(x, np.broadcast_to(np.eye(2), (3, 2, 2)))
        with pytest.raises(ValueError, match="X has non-finite"):
            SiegelPoint(np.array([[bad]]), np.array([[1.0]]))

    def test_non_finite_y_keeps_its_error(self):
        with pytest.raises(ValueError, match="^Y has non-finite entries$"):
            SiegelPoint(np.array([[0.0]]), np.array([[math.nan]]))


class TestHugeX:
    """An entry of X of 2^52 or more is rejected before any step: beyond it
    rint is not exact and the int64 translation can wrap."""

    @pytest.mark.parametrize(
        "x", [[[1e20]], [[1e308, 0.0], [0.0, 0.0]], [[0.0, -(2.0**52)], [-(2.0**52), 0.0]]]
    )
    def test_rejected(self, x):
        x = np.array(x)
        y = np.eye(len(x))
        with pytest.raises(ValueError, match=r"below 2\^52"):
            reduce_to_fundamental(SiegelPoint(x, y))
        # One point of a batch is enough.
        batch = PointBatch(np.array([np.zeros_like(x), x]), np.array([y, y]))
        with pytest.raises(ValueError, match=r"below 2\^52"):
            reduce_batch(batch)

    @pytest.mark.parametrize("sign", [1, -1])
    def test_largest_allowed_entry_reduces_exactly(self, sign):
        b = sign * (2**52 - 1)
        gamma, z = reduce_to_fundamental(SiegelPoint(np.array([[float(b)]]), np.eye(1)))
        np.testing.assert_array_equal(gamma.mat, [[1, -b], [0, 1]])
        assert z.X[0, 0] == 0.0 and z.Y[0, 0] == 1.0
        x = np.array([[b, -b], [-b, b]], dtype=float)
        gamma, z = reduce_to_fundamental(SiegelPoint(x, np.eye(2)))
        want = np.eye(4, dtype=np.int64)
        want[:2, 2:] = -x.astype(np.int64)
        np.testing.assert_array_equal(gamma.mat, want)
        np.testing.assert_array_equal(z.X, np.zeros((2, 2)))
        np.testing.assert_array_equal(z.Y, np.eye(2))


# X below 2^52 whose reduction takes, after the congruence by the Lagrange
# matrix u, a translation -round(u X u^T) past 2^52 (entries near 1.2e17).
FAR_TRANSLATION = (
    [[4503599627370495.0, 2251799813685247.5], [2251799813685247.5, -4503599627370495.0]],
    [[8.736950273789637, -235.11608326192285], [-235.11608326192285, 6327.842072432943]],
)


class TestHugeTranslation:
    """A degree-2 step whose translation reaches 2^52 is rejected: beyond it
    rint is not exact and the int64 cast can wrap, so gamma would be wrong."""

    def test_rejected(self):
        x, y = (np.array(a) for a in FAR_TRANSLATION)
        assert np.abs(x).max() < 2.0**52
        with pytest.raises(ValueError, match=r"translation below 2\^52"):
            reduce_to_fundamental(SiegelPoint(x, y))
        batch = PointBatch(np.array([np.zeros((2, 2)), x]), np.array([np.eye(2), y]))
        with pytest.raises(ValueError, match=r"translation below 2\^52"):
            reduce_batch(batch)

    def test_seeded_draws_are_rejected_or_reduce_without_a_cast_warning(self):
        # X entries +-(2^52 - 1), Y of condition 1e6 to 1e11 under a random
        # rotation: unguarded, most of these cast a translation past 2^63.
        rng = np.random.default_rng(7)
        rejected = 0
        for _ in range(300):
            s = rng.choice([-1.0, 1.0], 3) * (2.0**52 - 1.0)
            x = np.array([[s[0], s[1]], [s[1], s[2]]])
            theta = rng.uniform(0.0, np.pi)
            q = np.array([[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]])
            low = 10.0 ** rng.uniform(-1.0, 1.0)
            y = (q * [low, low * 10.0 ** rng.uniform(6.0, 11.0)]) @ q.T
            z = SiegelPoint(x, (y + y.T) / 2.0)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                try:
                    reduce_to_fundamental(z)
                except ValueError as exc:
                    assert "2^52" in str(exc)
                    rejected += 1
        assert rejected > 250
