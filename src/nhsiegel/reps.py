"""Polynomial representations of the complex general linear group of the
form Sym^j(standard) tensor det^k, acting on spaces with an explicit
unitary-invariant inner product.

The Sym^j factor is realised on the monomial basis e^a = e_1^{a_1} ... e_n^{a_n}
with a_1 + ... + a_n = j, ordered so that the exponent (j, 0, ..., 0) comes
first.  A matrix M acts by substitution, e_i -> sum_r M[r, i] e_r, and the
det^k factor contributes the scalar det(M)^k.  The inner product is the one
induced from the standard inner product on the j-fold tensor power, under
which the monomial basis is orthogonal with

    <e^a, e^a> = (prod_i a_i!) / j!

so the vector e_1^j has norm 1.  This pairing is invariant under unitary
matrices and satisfies <rho(M) v, w> = <v, rho(M*) w> for all M.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import SingularMatrixError
from .linalg import MAX_DIM, _as_square, det_stack

# The most complex weights (16 MiB) that rep_matrix's gather table may hold.
# The table has C(n^2 + j - 1, j) rows, one per product of j entries of M,
# each of dim^2 weights: Sym^21 of degree 2 fits, Sym^22 does not.
_MAX_TABLE_ENTRIES = 2**20


@dataclass(frozen=True)
class Rep:
    """The representation Sym^j(standard) tensor det^k of rank-n invertible
    complex matrices.  Highest weight (j + k, k, ..., k)."""

    n: int
    j: int
    k: int

    def __post_init__(self):
        n, j, k = map(_as_int, (self.n, self.j, self.k))
        if n is None or not 1 <= n <= MAX_DIM:
            raise ValueError(f"degree {self.n} must be an integer in 1..{MAX_DIM}")
        if j is None or k is None or min(j, k) < 0:
            raise ValueError(f"Sym^j det^k needs integers j, k >= 0, got j={self.j}, k={self.k}")
        for name, value in zip("njk", (n, j, k)):
            object.__setattr__(self, name, value)  # plain ints, which JSON writes
        entries = math.comb(n * n + j - 1, j) * self.dim**2
        if entries > _MAX_TABLE_ENTRIES:
            raise ValueError(
                f"Sym^{j} of degree {n} needs a rep_matrix table of {entries} entries, "
                f"more than {_MAX_TABLE_ENTRIES}"
            )

    @cached_property
    def dim(self) -> int:
        return math.comb(self.n + self.j - 1, self.j)

    @cached_property
    def exponents(self) -> tuple[tuple[int, ...], ...]:
        """Monomial exponent tuples of total degree j, highest first."""
        return tuple(reversed(_compositions(self.j, self.n)))

    @cached_property
    def weights(self) -> tuple[tuple[int, ...], ...]:
        """Diagonal-torus weight of each basis vector."""
        return tuple(tuple(ai + self.k for ai in a) for a in self.exponents)

    @cached_property
    def half_weights(self) -> np.ndarray:
        """The (n, dim) array of half the torus weights, (a_i + k) / 2 at
        [i, a]: rho(diag(mu)^{1/2}) scales e^a by exp(log(mu) @ this)[a]."""
        return np.array(self.weights, dtype=float).T / 2.0

    @cached_property
    def basis_sq_norms(self) -> np.ndarray:
        fj = math.factorial(self.j)
        return np.array(
            [math.prod(math.factorial(ai) for ai in a) / fj for a in self.exponents]
        )

    @cached_property
    def _index(self) -> dict[tuple[int, ...], int]:
        return {a: idx for idx, a in enumerate(self.exponents)}

    @cached_property
    def _table(self) -> tuple[np.ndarray, np.ndarray]:
        """Gather table of ``rep_matrix``.  Column a of rho(M) / det^k
        expands prod_i (sum_r M[r, i] e_r)^{a_i}; each term splits every a_i
        over the rows r and is a product of j entries of M.  ``factors[t]``
        holds the j flat indices r * n + i of those entries, an int (T, j)
        array (shape (T, 0) for j = 0, whose products are all 1), and
        ``weights[t]`` the term's multinomial coefficient at the flattened
        (row, column) entry of rho(M) it adds to.  Both are filled in place."""
        n, dim = self.n, self.dim
        terms = math.comb(n * n + self.j - 1, self.j)  # T, as the cap counts them
        factors = np.empty((terms, self.j), dtype=np.intp)
        weights = np.zeros((terms, dim * dim), dtype=complex)
        t = 0
        for col, a in enumerate(self.exponents):
            for split in itertools.product(*(_compositions(ai, n) for ai in a)):
                k = np.array(split, dtype=np.int64).T  # k[r, i]: power of M[r, i]
                row = self._index[tuple(int(s) for s in k.sum(axis=1))]
                weights[t, row * dim + col] = math.prod(
                    math.factorial(ai) for ai in a
                ) / math.prod(math.factorial(int(x)) for x in k.flat)
                factors[t] = np.repeat(np.arange(n * n), k.ravel())
                t += 1
        return factors, weights


def _as_int(x) -> int | None:
    """x as a plain int if it is an integral number, else None."""
    try:
        return int(x) if x == int(x) else None
    except (TypeError, ValueError, OverflowError):
        return None


def _compositions(total: int, parts: int) -> list[tuple[int, ...]]:
    """All tuples of ``parts`` non-negative integers summing to ``total``,
    in ascending order."""
    return sorted(
        tuple(bars.count(i) for i in range(parts))
        for bars in itertools.combinations_with_replacement(range(parts), total)
    )


@dataclass(frozen=True, eq=False)
class RepVector:
    """A vector in a representation space, in the monomial basis."""

    rep: Rep
    coords: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.coords, dtype=complex)
        if c.shape != (self.rep.dim,):
            raise ValueError(
                f"coordinate length {c.shape} does not match dimension {self.rep.dim}"
            )
        c = c.copy()
        c.flags.writeable = False
        object.__setattr__(self, "coords", c)

    def __add__(self, other: "RepVector") -> "RepVector":
        _check_same_rep(self, other)
        return RepVector(self.rep, self.coords + other.coords)

    def __sub__(self, other: "RepVector") -> "RepVector":
        _check_same_rep(self, other)
        return RepVector(self.rep, self.coords - other.coords)

    def __mul__(self, scalar) -> "RepVector":
        return RepVector(self.rep, self.coords * scalar)

    __rmul__ = __mul__


def make_rep(n: int, j: int, k: int) -> Rep:
    """Sym^j tensor det^k for rank n; highest weight (j + k, k, ..., k)."""
    return Rep(n, j, k)


def highest_weight(rep: Rep) -> tuple[int, ...]:
    return (rep.j + rep.k,) + (rep.k,) * (rep.n - 1)


def vector(rep: Rep, coords) -> RepVector:
    return RepVector(rep, np.asarray(coords, dtype=complex))


def basis_vector(rep: Rep, idx: int) -> RepVector:
    coords = np.zeros(rep.dim, dtype=complex)
    coords[idx] = 1.0
    return RepVector(rep, coords)


def _check_same_rep(v: RepVector, w: RepVector) -> None:
    if v.rep != w.rep:
        raise ValueError(f"vectors from different representations: {v.rep} vs {w.rep}")


def rep_matrix(rep: Rep, m) -> np.ndarray:
    """The matrix of the representation at m, in the monomial basis; for an
    (N, n, n) stack of matrices, the (N, dim, dim) stack of theirs."""
    m = np.asarray(m, dtype=complex)
    m = _as_square(m, "representation argument", stacked=m.ndim == 3)
    if m.shape[-1] != rep.n:
        raise ValueError(f"matrix rank {m.shape[-1]} does not match representation rank {rep.n}")
    flat = m.reshape(-1, rep.n * rep.n)
    if rep.k > 0:
        d = det_stack(m.reshape(-1, rep.n, rep.n))
        scale = np.maximum(1.0, np.abs(flat).max(axis=1))
        if (np.abs(d) <= 1e-13 * scale**rep.n).any():
            raise SingularMatrixError("determinant twist requires an invertible matrix")
    factors, weights = rep._table
    terms = flat[:, factors].prod(axis=-1)
    out = (terms @ weights).reshape(m.shape[:-2] + (rep.dim, rep.dim))
    if rep.k > 0:
        out *= (d**rep.k).reshape(m.shape[:-2] + (1, 1))
    return out


def apply(rep: Rep, m, v: RepVector) -> RepVector:
    """rho(m) v."""
    if v.rep != rep:
        raise ValueError("vector does not belong to this representation")
    return RepVector(rep, rep_matrix(rep, m) @ v.coords)


def inner(v: RepVector, w: RepVector) -> complex:
    """The invariant Hermitian pairing, linear in the first slot."""
    _check_same_rep(v, w)
    return complex(np.sum(v.coords * np.conj(w.coords) * v.rep.basis_sq_norms))


def norms(rep: Rep, coords: np.ndarray) -> np.ndarray:
    """Invariant norms of a stack of coordinate vectors (..., dim).  A vector
    of finite coordinates whose sum of squares overflows is divided by its
    largest |coordinate| first, so its norm is inf only if it exceeds the
    float range."""
    w = rep.basis_sq_norms
    # Below 2^500 no square overflows: dim <= 1024 and w <= 1 keep the sum
    # below 2^1011.  Where none is above, this is the only test added.
    if not np.count_nonzero(np.abs(coords) > 2.0**500):
        return np.sqrt(np.maximum(0.0, (coords * np.conj(coords) * w).sum(axis=-1).real))
    c = coords.reshape(-1, coords.shape[-1])
    with np.errstate(over="ignore", invalid="ignore"):
        sq = (c * np.conj(c) * w).sum(axis=-1).real
        s = np.abs(c).max(axis=-1)
        redo = ~(sq < np.inf) & (s < np.inf)  # overflowed (inf or NaN), c finite
        unit = c[redo] / s[redo, None]
        sq[redo] = (unit * np.conj(unit) * w).sum(axis=-1).real
        out = np.sqrt(np.maximum(0.0, sq))
        out[redo] *= s[redo]
    return out.reshape(coords.shape[:-1])


def norm(v: RepVector) -> float:
    return float(norms(v.rep, v.coords))
