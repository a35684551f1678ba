import itertools
import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nhsiegel.errors import SingularMatrixError
from nhsiegel.linalg import det_stack, eigenvalues_sym
from nhsiegel.reps import (
    Rep,
    _compositions,
    apply,
    basis_vector,
    highest_weight,
    inner,
    make_rep,
    norm,
    norms,
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
        with pytest.raises(ValueError):
            make_rep(2, -1, 0)
        with pytest.raises(ValueError):
            make_rep(2, 0, -3)

    @pytest.mark.parametrize("j, k", [(2.7, 0), (0, 0.5), (math.nan, 0), (0, math.inf), ("2", 0), (None, 0)])
    def test_non_integral_weight_rejected(self, j, k):
        with pytest.raises(ValueError):
            make_rep(1, j, k)

    @pytest.mark.parametrize("build", [make_rep, Rep])
    @pytest.mark.parametrize("n", [1.5, math.nan, "1", 0, 9])
    def test_bad_degree_rejected(self, build, n):
        with pytest.raises(ValueError, match="degree"):
            build(n, 0, 0)

    def test_integral_values_stored_as_plain_ints(self):
        rep = Rep(np.int64(2), 2.0, np.int32(1))
        assert rep == make_rep(2, 2, 1)
        assert [type(x) for x in (rep.n, rep.j, rep.k)] == [int, int, int]
        assert json.dumps({"j": rep.j, "k": rep.k}) == '{"j": 2, "k": 1}'

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
        with pytest.raises(ValueError):
            apply(make_rep(2, 2, 1), np.eye(2), v)


def _frozen_compositions(total, parts):
    # The enumeration that rep_matrix's table was first built on, kept as an
    # independent reference and to pin the table's bits.
    return [c for c in itertools.product(range(total + 1), repeat=parts) if sum(c) == total]


def rep_matrix_power_table(rep, stack):
    """Reference form of ``rep_matrix``: each term is the product of all n^2
    entries of M raised to the powers of a table built independently here."""
    n, dim = rep.n, rep.dim
    powers, weights = [], []
    for col, a in enumerate(rep.exponents):
        for split in itertools.product(*(_frozen_compositions(ai, n) for ai in a)):
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
        with pytest.raises(ValueError):
            inner(v, w)

    @pytest.mark.parametrize("scale", [1e160, 1e200, 1e300, 2.0**1000])
    def test_norm_whose_square_overflows(self, rng, scale):
        # The squares overflow, the norm does not: it scales with the vector.
        rep = make_rep(2, 3, 0)
        coords = rng.standard_normal((5, rep.dim)) + 1j * rng.standard_normal((5, rep.dim))
        coords /= np.abs(coords).max(axis=-1, keepdims=True)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = norms(rep, scale * coords)
            assert norm(vector(rep, scale * coords[0])) == got[0]
        np.testing.assert_allclose(got, scale * norms(rep, coords), rtol=1e-15)

    def test_norm_keeps_its_bits_where_the_sum_is_finite(self, rng):
        rep = make_rep(2, 3, 0)
        coords = rng.standard_normal((50, rep.dim)) + 1j * rng.standard_normal((50, rep.dim))
        coords *= 10.0 ** rng.uniform(-300.0, 150.0, (50, 1))
        coords[0] = [1e300, 0.0, 0.0, 0.0]  # takes the careful path for all rows
        with np.errstate(over="ignore", invalid="ignore"):
            plain = np.sqrt((coords * np.conj(coords) * rep.basis_sq_norms).sum(axis=-1).real)
        got = norms(rep, coords)
        assert got[1:].tobytes() == plain[1:].tobytes()
        assert got[0] == 1e300 and not np.isfinite(plain[0])
        # Non-finite coordinates give what the plain sum gives.
        bad = np.array([[np.inf, 0, 0, 0], [np.nan, 1e300, 0, 0]], dtype=complex)
        assert np.isnan(norms(rep, bad)).all()
        # Past the float range the norm is inf.
        assert norms(rep, np.full(rep.dim, 1e308 + 1e308j)) == np.inf


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


class TestOrthogonalInvariance:
    """rho(Q) keeps the invariant norm for every real orthogonal Q, of
    determinant 1 or -1: the premise on which phi is read off the
    eigendecomposition of Y."""

    @settings(max_examples=200, deadline=None)
    @given(
        n=st.integers(1, 3),
        j=st.integers(0, 3),
        k=st.integers(0, 3),
        entries=st.lists(
            st.floats(-1.0, 1.0, allow_nan=False, allow_subnormal=False), min_size=9, max_size=9
        ),
        reflect=st.booleans(),
        coords=st.lists(st.integers(-1000, 1000), min_size=20, max_size=20),
    )
    def test_norm_preserved(self, n, j, k, entries, reflect, coords):
        rep = make_rep(n, j, k)
        q, _ = np.linalg.qr(np.array(entries[: n * n]).reshape(n, n))
        if (np.linalg.det(q) < 0.0) != reflect:
            q[:, 0] = -q[:, 0]
        c = np.array(coords, dtype=float) / 100.0
        v = vector(rep, c[: rep.dim] + 1j * c[10 : 10 + rep.dim])
        assert abs(norm(apply(rep, q, v)) - norm(v)) <= 1e-12 * norm(v)


def _frozen_table(n, j):
    exponents = sorted(_frozen_compositions(j, n), reverse=True)
    index = {a: idx for idx, a in enumerate(exponents)}
    dim = len(exponents)
    factors, weights = [], []
    for col, a in enumerate(exponents):
        for split in itertools.product(*(_frozen_compositions(ai, n) for ai in a)):
            k = np.array(split, dtype=np.int64).T
            row = index[tuple(int(s) for s in k.sum(axis=1))]
            w = np.zeros(dim * dim, dtype=complex)
            w[row * dim + col] = math.prod(math.factorial(ai) for ai in a) / math.prod(
                math.factorial(int(x)) for x in k.flat
            )
            factors.append(np.repeat(np.arange(n * n), k.ravel()))
            weights.append(w)
    return tuple(exponents), np.array(factors, dtype=np.intp), np.array(weights)


TABLE_REPS = sorted(
    set(REP_PARAMS)
    | set(itertools.product(range(1, 4), range(5), range(3)))
    | {(4, 3, 0), (2, 20, 0)}
)


class TestMonomialEnumeration:
    @pytest.mark.parametrize("parts", range(1, 6))
    @pytest.mark.parametrize("total", range(7))
    def test_compositions_in_ascending_order(self, total, parts):
        assert _compositions(total, parts) == _frozen_compositions(total, parts)

    @pytest.mark.parametrize("n,j,k", TABLE_REPS)
    def test_table_keeps_its_bits(self, n, j, k):
        rep = make_rep(n, j, k)
        exponents, factors, weights = _frozen_table(n, j)
        assert rep.exponents == exponents
        got_factors, got_weights = rep._table
        assert got_factors.dtype == factors.dtype and got_weights.dtype == weights.dtype
        assert got_factors.shape == factors.shape and got_weights.shape == weights.shape
        assert got_factors.tobytes() == factors.tobytes()
        assert got_weights.tobytes() == weights.tobytes()


class TestTableCap:
    """A rep whose rep_matrix table would hold more than 2^20 complex
    weights (16 MiB) is refused when it is constructed."""

    @pytest.mark.parametrize("n, j", [(2, 22), (8, 3)])
    def test_refused_before_any_allocation(self, n, j):
        import tracemalloc

        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match=f"Sym\\^{j} of degree {n} needs"):
                Rep(n, j, 0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    def test_table_build_peaks_at_the_table(self):
        # The table is filled in place, so building the largest degree-2
        # table (about 16 MB) allocates little beyond the table itself.
        import tracemalloc

        rep = Rep(2, 21, 0)
        tracemalloc.start()
        try:
            factors, weights = rep._table
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.1 * (factors.nbytes + weights.nbytes)

    def test_largest_degree_two_rep_accepted(self):
        rep = Rep(2, 21, 0)
        assert rep.dim == 22

    def test_table_sizes(self):
        # The closed form of the cap against the tables it sizes.
        for n, j in [(1, 5), (2, 4), (3, 3), (4, 3)]:
            factors, weights = make_rep(n, j, 0)._table
            assert weights.shape == (math.comb(n * n + j - 1, j), math.comb(n + j - 1, j) ** 2)
        assert make_rep(4, 3, 0)._table[1].size == 326_400
