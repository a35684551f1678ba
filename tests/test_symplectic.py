import math

import numpy as np
import pytest

from nhsiegel.errors import (
    NonIntegralError,
    NotPositiveDefiniteError,
    ReductionBudgetError,
)
from nhsiegel.linalg import eigenvalues_sym, in_V_delta
from nhsiegel.sampling import (
    random_compact,
    random_siegel_point,
    random_symplectic,
)
from nhsiegel.symplectic import (
    FUNDAMENTAL_DOMAIN_DELTA,
    SiegelPoint,
    SymplecticMatrix,
    act,
    automorphy_factor,
    compact_from_unitary,
    delta_for_degree,
    embedded_inversion,
    from_point,
    gl_embedding,
    group_norm,
    inversion,
    is_in_principal_congruence,
    is_symplectic,
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


class TestAct:
    def test_identity(self, rng):
        z = random_siegel_point(2, rng)
        w = act(SymplecticMatrix.identity(2), z)
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
    def test_identity(self):
        assert group_norm(SymplecticMatrix.identity(1)) == pytest.approx(math.sqrt(2))

    def test_diagonal(self):
        t = 3.0
        g = SymplecticMatrix(np.diag([t, 1 / t]))
        assert group_norm(g) == pytest.approx(math.sqrt(t * t + t ** -2))

    def test_inversion(self):
        for n in (1, 2):
            assert group_norm(inversion(n)) == pytest.approx(math.sqrt(2 * n))

    def test_right_compact_invariance(self, rng):
        for _ in range(200):
            n = int(rng.integers(1, 3))
            g = random_symplectic(n, rng)
            k = random_compact(n, rng)
            assert abs(group_norm(g @ k) - group_norm(g)) <= 1e-9 * group_norm(g)


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

    def test_budget_error(self):
        z = SiegelPoint(np.array([[0.3]]), np.array([[1e-2]]))
        with pytest.raises(ReductionBudgetError):
            reduce_to_fundamental(z, budget=1)

    def test_unsupported_degree(self):
        z = SiegelPoint.base_point(3)
        with pytest.raises(ValueError):
            reduce_to_fundamental(z)

    def test_delta_table(self):
        assert delta_for_degree(1) == pytest.approx(math.sqrt(3) / 2)
        # Proved: sqrt(3)/4 less the slack of the two stopping tolerances.
        assert math.sqrt(3) / 4 - 1e-9 <= delta_for_degree(2) <= math.sqrt(3) / 4
        assert FUNDAMENTAL_DOMAIN_DELTA[1] > FUNDAMENTAL_DOMAIN_DELTA[2]


class TestPrincipalCongruence:
    def test_identity(self):
        for n, level in [(1, 2), (2, 5)]:
            assert is_in_principal_congruence(SymplecticMatrix.identity(n), level)

    def test_level_translation(self):
        level = 3
        b = np.zeros((2, 2))
        b[0, 0] = level
        assert is_in_principal_congruence(translation(b), level)

    def test_inversion_not_in_level2(self):
        assert not is_in_principal_congruence(inversion(1), 2)

    def test_non_integral(self):
        g = from_point(SiegelPoint(np.zeros((1, 1)), np.array([[2.0]])))
        with pytest.raises(NonIntegralError):
            is_in_principal_congruence(g, 2)


class TestTypes:
    def test_siegel_point_needs_posdef(self):
        with pytest.raises(NotPositiveDefiniteError):
            SiegelPoint(np.zeros((2, 2)), np.diag([1.0, -1.0]))

    def test_siegel_point_needs_symmetric(self):
        with pytest.raises(ValueError):
            SiegelPoint(np.array([[0.0, 1.0], [0.0, 0.0]]), np.eye(2))

    def test_symplectic_matrix_validates(self):
        with pytest.raises(ValueError):
            SymplecticMatrix(2.0 * np.eye(4))

    def test_blocks(self):
        g = inversion(2)
        np.testing.assert_allclose(g.B, -np.eye(2))
        np.testing.assert_allclose(g.C, np.eye(2))
        np.testing.assert_allclose(g.A, np.zeros((2, 2)))

    def test_embedded_inversion_is_symplectic(self):
        for n in (2, 3):
            for i in range(1, n + 1):
                assert is_symplectic(embedded_inversion(n, i).mat)

    def test_symplectic_form_square(self):
        j = symplectic_form(2)
        np.testing.assert_allclose(j @ j, -np.eye(4))
