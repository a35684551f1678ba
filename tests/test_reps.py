import itertools
import math

import numpy as np
import pytest

from nhsiegel.errors import RepMismatchError, SingularMatrixError, UnsupportedWeightError
from nhsiegel.linalg import det_stack, eigenvalues_sym
from nhsiegel.reps import (
    _compositions,
    apply,
    basis_vector,
    highest_weight,
    inner,
    make_rep,
    norm,
    rep_matrix,
    vector,
)
from nhsiegel.sampling import random_unitary

REP_PARAMS = [(1, 0, 4), (2, 2, 0), (2, 2, 1), (2, 0, 10)]


def random_vector(rep, rng):
    return vector(rep, rng.standard_normal(rep.dim) + 1j * rng.standard_normal(rep.dim))


def random_invertible(n, rng):
    while True:
        m = rng.uniform(-2, 2, size=(n, n)) + 1j * rng.uniform(-2, 2, size=(n, n))
        if abs(np.linalg.det(m)) > 0.2:
            return m


class TestMakeRep:
    def test_det_power(self):
        rep = make_rep(2, 0, 10)
        assert rep.dim == 1
        assert highest_weight(rep) == (10, 10)

    def test_sym2_twist(self):
        rep = make_rep(2, 2, 1)
        assert rep.dim == 3
        assert highest_weight(rep) == (3, 1)

    def test_scalar_weight4(self):
        rep = make_rep(1, 0, 4)
        assert rep.dim == 1
        assert highest_weight(rep) == (4,)

    def test_trivial(self):
        assert highest_weight(make_rep(2, 0, 0)) == (0, 0)

    def test_dimension_formula(self):
        for n, j in [(2, 0), (2, 5), (3, 2), (4, 3)]:
            assert make_rep(n, j, 0).dim == math.comb(n + j - 1, j)

    def test_unsupported(self):
        with pytest.raises(UnsupportedWeightError):
            make_rep(2, -1, 0)
        with pytest.raises(UnsupportedWeightError):
            make_rep(2, 0, -3)

    def test_weights_metadata(self):
        rep = make_rep(2, 2, 1)
        assert rep.exponents == ((2, 0), (1, 1), (0, 2))
        assert rep.weights == ((3, 1), (2, 2), (1, 3))
        np.testing.assert_allclose(rep.basis_sq_norms, [1.0, 0.5, 1.0])


class TestApply:
    def test_det_cube_scalar(self):
        rep = make_rep(2, 0, 3)
        v = vector(rep, [1.5])
        out = apply(rep, 2.0 * np.eye(2), v)
        np.testing.assert_allclose(out.coords, [1.5 * 64.0])

    def test_sym2_diagonal(self):
        rep = make_rep(2, 2, 0)
        a, b = 2.0, 3.0
        m = rep_matrix(rep, np.diag([a, b]))
        np.testing.assert_allclose(m, np.diag([a * a, a * b, b * b]))

    def test_identity_action(self, rng):
        for n, j, k in REP_PARAMS:
            rep = make_rep(n, j, k)
            v = random_vector(rep, rng)
            out = apply(rep, np.eye(n), v)
            np.testing.assert_allclose(out.coords, v.coords, atol=1e-14)

    def test_n1_power(self, rng):
        rep = make_rep(1, 0, 4)
        v = vector(rep, [1.0 + 2.0j])
        z = 0.7 - 0.3j
        out = apply(rep, [[z]], v)
        np.testing.assert_allclose(out.coords, [v.coords[0] * z**4])

    def test_singular_det_twist(self):
        rep = make_rep(2, 0, 2)
        with pytest.raises(SingularMatrixError):
            rep_matrix(rep, [[1.0, 1.0], [1.0, 1.0]])

    def test_singular_allowed_without_twist(self):
        rep = make_rep(2, 2, 0)
        m = rep_matrix(rep, [[1.0, 1.0], [1.0, 1.0]])
        assert np.all(np.isfinite(m))

    def test_rep_mismatch(self, rng):
        v = random_vector(make_rep(2, 2, 0), rng)
        with pytest.raises(RepMismatchError):
            apply(make_rep(2, 2, 1), np.eye(2), v)


def rep_matrix_power_table(rep, stack):
    """Reference form of ``rep_matrix``: each term is the product of all n^2
    entries of M raised to the powers of a table built independently here."""
    n, dim = rep.n, rep.dim
    powers, weights = [], []
    for col, a in enumerate(rep.exponents):
        for split in itertools.product(*(_compositions(ai, n) for ai in a)):
            k = np.array(split, dtype=np.int64).T  # k[r, i]: power of M[r, i]
            row = rep.exponents.index(tuple(int(s) for s in k.sum(axis=1)))
            w = np.zeros(dim * dim, dtype=complex)
            w[row * dim + col] = math.prod(math.factorial(ai) for ai in a) / math.prod(
                math.factorial(int(x)) for x in k.flat
            )
            powers.append(k.ravel())
            weights.append(w)
    stack = np.asarray(stack, dtype=complex)
    terms = np.prod(stack.reshape(len(stack), 1, n * n) ** np.array(powers), axis=-1)
    out = (terms @ np.array(weights)).reshape(len(stack), dim, dim)
    if rep.k > 0:
        out *= (det_stack(stack) ** rep.k)[:, None, None]
    return out


class TestRepMatrixReference:
    @pytest.mark.parametrize("complex_input", [False, True], ids=["real", "complex"])
    @pytest.mark.parametrize("n,j,k", list(itertools.product((1, 2), range(5), range(4))))
    def test_agrees_with_power_table(self, n, j, k, complex_input, rng):
        rep = make_rep(n, j, k)
        stack = rng.uniform(-2, 2, size=(64, n, n))
        if complex_input:
            stack = stack + 1j * rng.uniform(-2, 2, size=(64, n, n))
        # The whole stack, and its first matrix alone (the N = 1 case).
        for got, ref in [
            (rep_matrix(rep, stack), rep_matrix_power_table(rep, stack)),
            (rep_matrix(rep, stack[0])[None], rep_matrix_power_table(rep, stack[:1])),
        ]:
            err = np.abs(got - ref).max(axis=(1, 2))
            assert (err <= 1e-15 * np.abs(ref).max(axis=(1, 2))).all()
            if j <= 1 or (j <= 2 and not complex_input):
                np.testing.assert_array_equal(got, ref)

    @pytest.mark.parametrize("n,j,k", [(1, 0, 1), (1, 2, 3), (2, 0, 2), (2, 2, 1), (2, 4, 3)])
    def test_singular_member_raises_with_twist(self, n, j, k, rng):
        stack = rng.uniform(-2, 2, size=(5, n, n))
        stack[3] = 0.0 if n == 1 else [[1.0, 2.0], [0.5, 1.0]]
        with pytest.raises(SingularMatrixError):
            rep_matrix(make_rep(n, j, k), stack)
        assert np.isfinite(rep_matrix(make_rep(n, j, 0), stack)).all()


class TestInner:
    @staticmethod
    def _symmetrized_tensor(word, n):
        # m = (1/j!) sum over all permutations of the word's tensor.
        j = len(word)
        t = np.zeros((n,) * j, dtype=complex)
        for perm in itertools.permutations(word):
            t[perm] += 1.0 / math.factorial(j)
        return t

    def test_mixed_monomial_oracle(self):
        # Independent oracle: embed Sym^2 into the 2-fold tensor power with
        # the standard inner product.  The monomial e1 e2 symmetrizes to
        # (e1 x e2 + e2 x e1)/2, whose squared norm is 1/2.
        t = self._symmetrized_tensor((0, 1), 2)
        oracle = float(np.vdot(t, t).real)
        assert oracle == pytest.approx(0.5)

        rep = make_rep(2, 2, 0)
        e1e2 = basis_vector(rep, rep.exponents.index((1, 1)))
        assert inner(e1e2, e1e2) == pytest.approx(oracle)

    def test_all_sym3_norms_against_oracle(self):
        # Same oracle across the full monomial basis of Sym^3 in rank 2.
        rep = make_rep(2, 3, 0)
        words = {(3, 0): (0, 0, 0), (2, 1): (0, 0, 1), (1, 2): (0, 1, 1), (0, 3): (1, 1, 1)}
        for a, word in words.items():
            t = self._symmetrized_tensor(word, 2)
            oracle = float(np.vdot(t, t).real)
            v = basis_vector(rep, rep.exponents.index(a))
            assert inner(v, v) == pytest.approx(oracle)

    def test_highest_weight_norm_one(self):
        for n, j, k in REP_PARAMS:
            rep = make_rep(n, j, k)
            assert norm(basis_vector(rep, 0)) == pytest.approx(1.0)

    def test_orthogonality(self):
        rep = make_rep(2, 2, 0)
        e11 = basis_vector(rep, 0)
        e12 = basis_vector(rep, 1)
        assert inner(e11, e12) == 0.0

    def test_mismatch(self, rng):
        v = random_vector(make_rep(2, 2, 0), rng)
        w = random_vector(make_rep(2, 0, 10), rng)
        with pytest.raises(RepMismatchError):
            inner(v, w)


class TestProperties:
    @pytest.mark.parametrize("n,j,k", REP_PARAMS)
    def test_homomorphism(self, rng, n, j, k):
        rep = make_rep(n, j, k)
        for _ in range(100):
            m1 = random_invertible(n, rng)
            m2 = random_invertible(n, rng)
            v = random_vector(rep, rng)
            lhs = apply(rep, m1 @ m2, v)
            rhs = apply(rep, m1, apply(rep, m2, v))
            assert norm(lhs - rhs) <= 1e-9 * (1.0 + norm(lhs))

    @pytest.mark.parametrize("n,j,k", REP_PARAMS)
    def test_unitary_invariance(self, rng, n, j, k):
        rep = make_rep(n, j, k)
        for _ in range(100):
            u = random_unitary(n, rng)
            v = random_vector(rep, rng)
            assert norm(apply(rep, u, v)) == pytest.approx(norm(v), rel=1e-9)

    @pytest.mark.parametrize("n,j,k", REP_PARAMS)
    def test_adjoint_identity(self, rng, n, j, k):
        rep = make_rep(n, j, k)
        for _ in range(100):
            m = random_invertible(n, rng)
            v = random_vector(rep, rng)
            w = random_vector(rep, rng)
            lhs = inner(apply(rep, m, v), w)
            rhs = inner(v, apply(rep, m.conj().T, w))
            assert abs(lhs - rhs) <= 1e-9 * (1.0 + abs(lhs))


class TestWeightInequality:
    """||rho(Y) v|| is pinched between the products of eigenvalue powers
    taken with the reversed and the standard weight order."""

    @pytest.mark.parametrize("n,j,k", REP_PARAMS)
    def test_bounds(self, rng, n, j, k):
        rep = make_rep(n, j, k)
        lam = highest_weight(rep)
        for _ in range(200):
            a = rng.uniform(-2, 2, size=(n, n))
            y = a @ a.T + np.exp(rng.uniform(-3, 2)) * np.eye(n)
            mu = eigenvalues_sym(y)
            v = random_vector(rep, rng)
            val = norm(apply(rep, y, v))
            lower = math.prod(mu[i] ** lam[n - 1 - i] for i in range(n)) * norm(v)
            upper = math.prod(mu[i] ** lam[i] for i in range(n)) * norm(v)
            assert val >= lower * (1.0 - 1e-9)
            assert val <= upper * (1.0 + 1e-9)

    @pytest.mark.parametrize("n,j,k", REP_PARAMS)
    def test_scalar_matrix_equality(self, rng, n, j, k):
        rep = make_rep(n, j, k)
        lam = highest_weight(rep)
        c = 1.7
        v = random_vector(rep, rng)
        val = norm(apply(rep, c * np.eye(n), v))
        expected = c ** sum(lam) * norm(v)
        assert val == pytest.approx(expected, rel=1e-12)

    def test_degree_one_exact_power(self, rng):
        rep = make_rep(1, 0, 4)
        v = random_vector(rep, rng)
        y = 2.3
        out = apply(rep, [[y]], v)
        np.testing.assert_allclose(out.coords, v.coords * y**4)
