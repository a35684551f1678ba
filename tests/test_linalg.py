import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import in_V_delta, multi_indices
import nhsiegel.linalg
from nhsiegel.errors import EigenIterationError, SingularMatrixError
from nhsiegel.linalg import (
    MultiIndex,
    _eigh,
    _require_symmetric,
    det,
    eigenvalues_sym,
    eigh_sym,
    inverse,
    monomial,
    multi_index_count,
    solve_gauss,
    sqrt_posdef,
)
from nhsiegel.symplectic import SiegelPoint


def random_symmetric(rng, n, scale=10.0):
    a = rng.uniform(-scale, scale, size=(n, n))
    return (a + a.T) / 2.0


class TestEigen:
    def test_diagonal(self):
        np.testing.assert_allclose(eigenvalues_sym(np.diag([4.0, 1.0])), [4.0, 1.0])

    def test_identity(self):
        np.testing.assert_allclose(eigenvalues_sym(np.eye(3)), [1.0, 1.0, 1.0])

    def test_analytic_2x2(self):
        np.testing.assert_allclose(
            eigenvalues_sym([[2.0, 1.0], [1.0, 2.0]]), [3.0, 1.0], atol=1e-14
        )

    def test_decreasing_order(self, rng):
        for _ in range(50):
            n = int(rng.integers(1, 5))
            w = eigenvalues_sym(random_symmetric(rng, n))
            assert all(w[i] >= w[i + 1] for i in range(n - 1))

    def test_reconstruction(self, rng):
        for _ in range(200):
            n = int(rng.integers(1, 5))
            y = random_symmetric(rng, n)
            w, q = eigh_sym(y)
            resid = np.max(np.abs((q * w) @ q.T - y))
            assert resid <= 1e-10 * (1.0 + np.max(np.abs(y)))
            np.testing.assert_allclose(q.T @ q, np.eye(n), atol=1e-13)

    def test_nonfinite_raises(self):
        with pytest.raises(EigenIterationError):
            eigh_sym(np.array([[np.nan, 0.0], [0.0, 1.0]]))

    def test_asymmetric_rejected(self):
        with pytest.raises(ValueError):
            eigh_sym(np.array([[1.0, 2.0], [0.0, 1.0]]))

    def test_dimension_guard(self):
        with pytest.raises(ValueError):
            eigenvalues_sym(np.eye(9))

    @settings(max_examples=50, deadline=None)
    @given(
        entries=st.lists(
            st.floats(min_value=-10, max_value=10, allow_nan=False), min_size=10, max_size=10
        )
    )
    def test_reconstruction_hypothesis(self, entries):
        y = np.zeros((4, 4))
        idx = 0
        for i in range(4):
            for j in range(i, 4):
                y[i, j] = entries[idx]
                y[j, i] = entries[idx]
                idx += 1
        w, q = eigh_sym(y)
        assert np.max(np.abs((q * w) @ q.T - y)) <= 1e-10 * (1.0 + np.max(np.abs(y)))


def require_symmetric_reference(a, name="matrix"):
    """The tolerance test of ``_require_symmetric`` without its exact-symmetry
    shortcut: the scale is always formed."""
    a = np.asarray(a, dtype=float)
    scale = np.maximum(1.0, np.abs(a).max(axis=(-2, -1), keepdims=True))
    if (np.abs(a - a.swapaxes(-1, -2)) > 1e-12 * scale).any():
        raise ValueError(f"{name} is not symmetric")
    return (a + a.swapaxes(-1, -2)) / 2.0


class TestRequireSymmetric:
    def test_exact_input_gives_equal_fresh_array(self, rng):
        for a in (random_symmetric(rng, 3), np.stack([random_symmetric(rng, 2) for _ in range(4)])):
            out = _require_symmetric(a, stacked=a.ndim == 3)
            np.testing.assert_array_equal(out, a)
            assert not np.shares_memory(out, a)

    def test_caller_arrays_stay_writeable(self, rng):
        x, y = random_symmetric(rng, 2), np.array([[2.0, 0.5], [0.5, 1.0]])
        SiegelPoint(x, y)
        assert x.flags.writeable and y.flags.writeable
        x[0, 0] = 1.0

    def test_small_asymmetry_symmetrised(self):
        for a in (
            np.array([[0.5, 0.1], [0.1 + 5e-13, 0.2]]),  # scale 1
            np.array([[1e6, 1.0], [1.0 + 1e-7, 2.0]]),  # scale 1e6
        ):
            out = _require_symmetric(a)
            np.testing.assert_array_equal(out, (a + a.T) / 2.0)
            np.testing.assert_array_equal(out, out.T)

    def test_large_asymmetry_raises(self):
        with pytest.raises(ValueError, match="^Y is not symmetric$"):
            _require_symmetric(np.array([[0.5, 0.1], [0.1 + 5e-12, 0.2]]), "Y")
        with pytest.raises(ValueError, match="^X is not symmetric$"):
            _require_symmetric(np.array([[[1e6, 1.0], [1.0 + 1e-5, 2.0]]]), "X", stacked=True)

    @pytest.mark.parametrize(
        "a",
        [
            [[np.nan, 1.0], [1.0, 2.0]],
            [[1.0, np.nan], [1.0, 2.0]],
            [[1.0, np.nan], [5.0, 2.0]],
            [[np.nan, 1.0], [5.0, 2.0]],
            [[np.inf, 1.0], [1.0, 2.0]],
            [[1.0, np.inf], [np.inf, 2.0]],
            [[1.0, np.inf], [1.0, 2.0]],
            [[1.0, -np.inf], [np.inf, 2.0]],
            [[1.0, 3.0], [5.0, np.inf]],
        ],
    )
    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    def test_nonfinite_as_reference(self, a):
        a = np.array(a)
        try:
            expected = require_symmetric_reference(a)
        except ValueError as exc:
            with pytest.raises(ValueError, match=f"^{exc}$"):
                _require_symmetric(a)
        else:
            np.testing.assert_array_equal(_require_symmetric(a), expected)


class TestSqrt:
    def test_diagonal(self):
        np.testing.assert_allclose(sqrt_posdef(np.diag([4.0, 9.0])), np.diag([2.0, 3.0]))

    def test_identity(self):
        np.testing.assert_allclose(sqrt_posdef(np.eye(3)), np.eye(3))

    def test_square_back(self):
        y = np.array([[2.0, 1.0], [1.0, 2.0]])
        r = sqrt_posdef(y)
        assert np.max(np.abs(r @ r - y)) <= 1e-10

    def test_random_spd(self, rng):
        for _ in range(100):
            n = int(rng.integers(1, 5))
            a = rng.uniform(-3, 3, size=(n, n))
            y = a @ a.T + 0.1 * np.eye(n)
            r = sqrt_posdef(y)
            assert np.max(np.abs(r @ r - y)) <= 1e-10 * (1.0 + np.max(np.abs(y)))
            w = eigenvalues_sym(r)
            assert w[-1] > 1e-12 * (1.0 + w[0])

    def test_not_posdef(self):
        with pytest.raises(ValueError, match=r"^matrix is not positive definite \(min eigenvalue -1\.000e\+00\)$"):
            sqrt_posdef(np.diag([1.0, -1.0]))
        with pytest.raises(ValueError, match=r"^matrix is not positive definite \(min eigenvalue 0\.000e\+00\)$"):
            sqrt_posdef(np.zeros((2, 2)))


class TestMonomial:
    def test_direct(self):
        beta = MultiIndex.from_dict(2, {(1, 1): 1, (2, 2): 2})
        assert monomial(np.diag([0.5, 3.0]), beta) == pytest.approx(4.5)

    def test_empty(self):
        beta = MultiIndex.from_dict(2, {})
        assert monomial([[7.0, 1.0], [1.0, 7.0]], beta) == 1.0

    def test_offdiag_power(self):
        beta = MultiIndex.from_dict(2, {(1, 2): 3})
        assert monomial([[2.0, 1.0], [1.0, 2.0]], beta) == 1.0

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            monomial(np.eye(3), MultiIndex.from_dict(2, {(1, 1): 1}))


class TestMultiIndex:
    def test_degree(self):
        beta = MultiIndex.from_dict(2, {(1, 1): 2, (1, 2): 1})
        assert beta.degree == 3

    def test_zero_powers_dropped(self):
        beta = MultiIndex.from_dict(2, {(1, 1): 0, (2, 2): 1})
        assert beta.powers == ((2, 2, 1),)

    def test_bad_pair(self):
        with pytest.raises(ValueError):
            MultiIndex.from_dict(2, {(2, 1): 1})
        with pytest.raises(ValueError):
            MultiIndex.from_dict(2, {(1, 3): 1})

    def test_negative_power(self):
        with pytest.raises(ValueError):
            MultiIndex.from_dict(2, {(1, 1): -1})

    def test_enumeration_count(self):
        for n, p in [(1, 3), (2, 2), (3, 1)]:
            found = list(multi_indices(n, p))
            assert len(found) == multi_index_count(n, p)
            assert len(set(found)) == len(found)
            assert all(b.degree <= p for b in found)


class TestInverseBound:
    """Entries of the inverse of Y >= delta*I are bounded by 1/delta."""

    @pytest.mark.parametrize("delta", [0.1, 1.0, 3.0])
    def test_inverse_entry_bound(self, rng, delta):
        for _ in range(300):
            n = int(rng.integers(1, 5))
            a = rng.uniform(-2, 2, size=(n, n))
            y = delta * np.eye(n) + a.T @ a
            assert in_V_delta(y, delta, tol=1e-10)
            assert np.abs(inverse(y)).max() <= 1.0 / delta + 1e-12

    @pytest.mark.parametrize("delta", [0.1, 1.0])
    def test_monomial_of_inverse_bound(self, rng, delta):
        p = 3
        betas = [b for b in multi_indices(2, p)]
        for _ in range(100):
            a = rng.uniform(-2, 2, size=(2, 2))
            y = delta * np.eye(2) + a.T @ a
            yinv = inverse(y)
            for beta in betas:
                assert abs(monomial(yinv, beta)) <= delta ** (-p) + 1e-9

    def test_trace_inequality(self, rng):
        delta = 0.5
        for _ in range(300):
            n = int(rng.integers(1, 5))
            b = rng.uniform(-2, 2, size=(n, n))
            s = b.T @ b
            a = rng.uniform(-2, 2, size=(n, n))
            y = delta * np.eye(n) + a.T @ a
            assert np.trace(s @ y) >= delta * np.trace(s) - 1e-10


class TestInverse:
    def test_spd_route_symmetric(self, rng):
        for _ in range(50):
            n = int(rng.integers(1, 5))
            a = rng.uniform(-2, 2, size=(n, n))
            y = a @ a.T + 0.5 * np.eye(n)
            yi = inverse(y)
            np.testing.assert_allclose(yi, yi.T)
            np.testing.assert_allclose(y @ yi, np.eye(n), atol=1e-10)

    def test_general_complex(self, rng):
        m = np.array([[1.0 + 1j, 2.0], [0.5j, 3.0 - 1j]])
        np.testing.assert_allclose(m @ inverse(m), np.eye(2), atol=1e-12)

    def test_singular(self):
        with pytest.raises(SingularMatrixError):
            inverse(np.array([[1.0, 2.0], [2.0, 4.0]]))

    def test_solve_matches(self, rng):
        a = rng.uniform(-2, 2, size=(3, 3)) + 1j * rng.uniform(-2, 2, size=(3, 3))
        b = rng.uniform(-1, 1, size=3)
        x = solve_gauss(a, b)
        np.testing.assert_allclose(a @ x, b, atol=1e-12)

    def test_det_examples(self):
        assert det(np.eye(3)) == pytest.approx(1.0)
        assert det([[2.0, 1.0], [1.0, 2.0]]) == pytest.approx(3.0)
        assert det(np.array([[1j]])) == pytest.approx(1j)


def test_sqrt_matches_eigen_decomposition(rng):
    # Cross-check the two SPD routes against each other.
    y = random_symmetric(rng, 3)
    y = y @ y.T + np.eye(3)
    w, q = eigh_sym(y)
    r = sqrt_posdef(y)
    np.testing.assert_allclose(r, (q * np.sqrt(w)) @ q.T, atol=1e-11)


def test_eig_scaling_invariance(rng):
    # Rescaled inputs converge too (threshold is relative).
    y = random_symmetric(rng, 4) * 1e6
    w, q = eigh_sym(y)
    assert np.max(np.abs((q * w) @ q.T - y)) <= 1e-10 * (1.0 + np.max(np.abs(y)))


class TestPointCopies:
    """``SiegelPoint`` freezes copies of X and Y made by ``_require_symmetric``."""

    def test_caller_arrays_stay_writeable_and_unaliased(self, rng):
        x, y = random_symmetric(rng, 2), np.array([[2.0, 0.5], [0.5, 1.0]])
        z = SiegelPoint(x, y)
        assert x.flags.writeable and y.flags.writeable
        assert not (z.X.flags.writeable or z.Y.flags.writeable)
        assert not (np.shares_memory(z.X, x) or np.shares_memory(z.Y, y))
        kept = z.X.copy()
        x[0, 1] = x[1, 0] = 7.0
        np.testing.assert_array_equal(z.X, kept)

    def test_tiny_skew_symmetrised(self):
        y = np.array([[2.0, 0.5 + 1e-13], [0.5, 1.0]])
        z = SiegelPoint(np.zeros((2, 2)), y)
        np.testing.assert_array_equal(z.Y, (y + y.T) / 2.0)
        np.testing.assert_array_equal(z.Y, z.Y.T)

    def test_large_skew_rejected(self):
        with pytest.raises(ValueError, match="^Y is not symmetric$"):
            SiegelPoint(np.zeros((2, 2)), np.array([[2.0, 0.5 + 1e-9], [0.5, 1.0]]))


def _symmetric_stack(rng, count, n):
    a = rng.standard_normal((count, n, n))
    return (a + a.swapaxes(1, 2)) / 2.0


class TestLapackKernel:
    """``_eigh`` calls the gufunc inside ``numpy.linalg.eigh`` directly: the
    same eigenvalues and eigenvectors, bit for bit, in decreasing order."""

    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("count", [0, 1, 1000])
    @pytest.mark.parametrize("scale", [1.0, 1e300, 1e-300])
    def test_bit_identical_to_numpy_eigh(self, rng, n, count, scale):
        a = _symmetric_stack(rng, count, n) * scale
        ties = np.array([np.eye(n), 2.0 * np.eye(n)]) * scale
        # The last two are views that are not C-contiguous.
        for stack in (a, ties, a[::-1], a.swapaxes(1, 2)):
            w, q = _eigh(stack)
            want_w, want_q = np.linalg.eigh(stack)
            assert np.array_equal(w, want_w[..., ::-1])
            assert np.array_equal(q, want_q[..., ::-1])
            assert np.all(w[..., :-1] >= w[..., 1:])

    def test_read_only_input(self, rng):
        a = _symmetric_stack(rng, 5, 2)
        a.flags.writeable = False
        w, q = _eigh(a)
        want_w, want_q = np.linalg.eigh(a)
        assert np.array_equal(w, want_w[..., ::-1]) and np.array_equal(q, want_q[..., ::-1])

    def test_non_convergence_raises(self, rng, monkeypatch):
        def diverging(a, signature):
            w, q = np.linalg.eigh(a)
            w[-1, 0] = np.nan  # as LAPACK leaves a stack entry it gave up on
            return w, q

        monkeypatch.setattr(nhsiegel.linalg, "_eigh_lo", diverging)
        with pytest.raises(EigenIterationError, match="did not converge"):
            eigh_sym(_symmetric_stack(rng, 3, 2))
