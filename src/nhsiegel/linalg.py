"""Small dense matrix kernel on numpy.linalg: symmetric eigenproblems, SPD
square roots and inverses, solves, determinants, and monomials in matrix
entries.

Everything here operates on plain numpy arrays at desk scale (n <= 8).  The
eigensolver and ``monomial`` also take (N, n, n) stacks: the batched point
path runs one symmetric eigensolve per batch, and a single matrix is the
N = 1 case of the same call.  The eigensolve is the LAPACK kernel inside
``numpy.linalg.eigh``, called without that function's Python layer.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping

import numpy as np
# The gufunc that numpy.linalg.eigh runs (UPLO="L"; checked on numpy 2.4),
# with the same outputs bit for bit.  Its module is private, so it is bound
# here: a numpy without it fails at import, not in the middle of a sweep.
from numpy.linalg._umath_linalg import eigh_lo as _eigh_lo

from .errors import EigenIterationError, SingularMatrixError

MAX_DIM = 8

_PIVOT_TOL = 1e-13


def _as_square(a, name: str = "matrix", stacked: bool = False) -> np.ndarray:
    """a as a square matrix, or with ``stacked`` as an (N, n, n) stack."""
    a = np.asarray(a)
    if a.ndim != (3 if stacked else 2) or a.shape[-1] != a.shape[-2]:
        raise ValueError(f"{name} must be square, got shape {a.shape}")
    if a.shape[-1] < 1 or a.shape[-1] > MAX_DIM:
        raise ValueError(f"{name} dimension {a.shape[-1]} outside supported range 1..{MAX_DIM}")
    return a


def _t(a: np.ndarray) -> np.ndarray:
    """Transpose of each matrix of a stack (or of one matrix)."""
    return a.swapaxes(-1, -2)


def _require_symmetric(a, name: str = "matrix", stacked: bool = False) -> np.ndarray:
    a = _as_square(np.array(a, dtype=float), name, stacked)  # never the caller's array
    at = _t(a)
    # Every array this package builds, and most input, is exactly symmetric:
    # one comparison passes it, and the copy is returned as it is.
    # count_nonzero, not all() or any(): on a few entries it costs a fraction.
    if not np.count_nonzero(a != at):
        return a
    skew = np.abs(a - at)
    scale = np.maximum(1.0, np.abs(a).max(axis=(-2, -1), keepdims=True))
    if np.count_nonzero(skew > 1e-12 * scale):
        raise ValueError(f"{name} is not symmetric")
    return (a + at) / 2.0


def eigh_sym(y) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues (decreasing) and orthonormal eigenvectors of a real
    symmetric matrix, or of each matrix of an (N, n, n) stack.

    Returns (w, q) with y = q @ diag(w) @ q.T and w[..., 0] >= ... >= w[..., n-1].
    Raises EigenIterationError on non-finite entries or if the solver does
    not converge.
    """
    return _eigh(_require_symmetric(y, "eigh_sym input", stacked=np.ndim(y) == 3))


def _eigh(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # eigh_sym on input already checked to be symmetric.
    if np.count_nonzero(np.isfinite(a)) < a.size:
        raise EigenIterationError("eigensolver given non-finite entries")
    if a.shape[-1] == 1:  # the 1x1 problem needs no solver
        q = np.empty(a.shape)
        q.fill(1.0)  # as np.ones, without its Python-level wrapper
        return a[..., 0].copy(), q
    # a is a finite float64 stack: all that eigh's wrapper checks or casts.
    # On a 2x2 problem its errstate block costs more than LAPACK; the one
    # guarantee it adds, an error on non-convergence, is the NaN test here.
    w, q = _eigh_lo(a, signature="d->dd")
    if np.count_nonzero(np.isnan(w)):
        raise EigenIterationError("eigensolver did not converge")
    return w[..., ::-1], q[..., ::-1]


def eigenvalues_sym(y) -> np.ndarray:
    """Eigenvalues of a real symmetric matrix (or stack), in decreasing order."""
    return eigh_sym(y)[0]


def _posdef_floor(top):
    # Relative rule: positive definite means min eig > 1e-12 * (1 + max eig),
    # for the largest eigenvalue top: a float or an array of them.
    return 1e-12 * (1.0 + top)


def spectral(w: np.ndarray, q: np.ndarray, values: np.ndarray) -> np.ndarray:
    """The symmetric matrix q diag(values) q^T (per matrix of a stack)."""
    r = (q * values[..., None, :]) @ _t(q)
    return (r + _t(r)) / 2.0


def sqrt_posdef(y) -> np.ndarray:
    """Unique symmetric positive-definite square root of an SPD matrix."""
    w, q = eigh_sym(y)
    if w[-1] <= _posdef_floor(w[0]):
        raise ValueError(f"matrix is not positive definite (min eigenvalue {w[-1]:.3e})")
    return spectral(w, q, np.sqrt(w))


def in_V_delta(y, delta: float, tol: float = 1e-12) -> bool:
    """Whether y >= delta * identity, i.e. min eigenvalue >= delta (up to tol)."""
    if not (math.isfinite(delta) and delta > 0):
        raise ValueError(f"delta must be finite and positive, got {delta}")
    if not (math.isfinite(tol) and tol >= 0):
        raise ValueError(f"tol must be finite and non-negative, got {tol}")
    w = eigenvalues_sym(y)
    return float(w[-1]) >= delta - tol


def solve_gauss(a, b) -> np.ndarray:
    """Solve a @ x = b (LU with partial pivoting, numpy.linalg.solve).

    Works for real or complex a; b may be a vector or a matrix.  Raises
    SingularMatrixError when the least singular value of a is at most
    1e-13 times max(1, the largest).
    """
    a = _as_square(a, "coefficient matrix")
    s = np.linalg.svd(a, compute_uv=False)
    if not s[-1] > _PIVOT_TOL * max(1.0, float(s[0])):
        raise SingularMatrixError(f"least singular value {s[-1]:.3e} below threshold")
    return np.linalg.solve(a, np.asarray(b))


def inv_stack(m) -> np.ndarray:
    """Inverses of a stack of matrices (numpy.linalg.inv); SingularMatrixError
    if one is singular."""
    try:
        return np.linalg.inv(m)
    except np.linalg.LinAlgError as exc:
        raise SingularMatrixError(f"singular matrix in stack ({exc})") from None


def det_stack(m: np.ndarray) -> np.ndarray:
    """Determinants of a stack of matrices; closed form for n <= 2."""
    n = m.shape[-1]
    if n == 1:
        return m[..., 0, 0]
    if n == 2:
        return m[..., 0, 0] * m[..., 1, 1] - m[..., 0, 1] * m[..., 1, 0]
    return np.linalg.det(m)


def det(a) -> complex | float:
    """Determinant (real or complex)."""
    a = _as_square(a, "matrix")
    d = np.linalg.det(a)
    return complex(d) if np.iscomplexobj(a) else float(d)


def inverse(a) -> np.ndarray:
    """Matrix inverse.

    Real symmetric positive-definite inputs go through the eigensolver so
    the result is symmetric by construction; everything else goes through
    ``solve_gauss``.
    """
    a = _as_square(a, "matrix")
    if not np.iscomplexobj(a):
        af = np.asarray(a, dtype=float)
        if np.array_equal(af, af.T):
            w, q = eigh_sym(af)
            if w[-1] > _posdef_floor(w[0]):
                return spectral(w, q, 1.0 / w)
    return solve_gauss(a, np.eye(a.shape[0]))


@dataclass(frozen=True)
class MultiIndex:
    """Exponent assignment on the upper-triangular index pairs of an
    n x n symmetric matrix: pairs (i, j), 1 <= i <= j <= n, each carrying a
    non-negative integer power.  Pairs with power zero are not stored.
    """

    n: int
    powers: tuple[tuple[int, int, int], ...]  # (i, j, power), sorted, power > 0

    def __post_init__(self):
        if self.n < 1 or self.n > MAX_DIM:
            raise ValueError(f"dimension {self.n} outside supported range")
        seen = set()
        for (i, j, b) in self.powers:
            if not (1 <= i <= j <= self.n):
                raise ValueError(f"index pair ({i},{j}) outside upper triangle for n={self.n}")
            if b <= 0 or b != int(b):
                raise ValueError(f"power for ({i},{j}) must be a positive integer, got {b}")
            if (i, j) in seen:
                raise ValueError(f"duplicate index pair ({i},{j})")
            seen.add((i, j))
        object.__setattr__(self, "powers", tuple(sorted(self.powers)))

    @classmethod
    def from_dict(cls, n: int, entries: Mapping[tuple[int, int], int]) -> "MultiIndex":
        powers = tuple(
            (i, j, int(b)) for (i, j), b in sorted(entries.items()) if int(b) != 0
        )
        return cls(n, powers)

    @property
    def degree(self) -> int:
        return sum(b for _, _, b in self.powers)


def monomial(v, beta: MultiIndex):
    """Product of powers of upper-triangular entries of v prescribed by beta.

    For an (N, n, n) stack the result is the array of the N products.  The
    empty product (all powers zero) is 1, which also covers 0^0.
    """
    v = _as_square(v, "matrix", stacked=np.ndim(v) == 3)
    if v.shape[-1] != beta.n:
        raise ValueError(f"matrix dimension {v.shape[-1]} != multi-index dimension {beta.n}")
    out = np.ones(v.shape[:-2])
    for i, j, b in beta.powers:
        out = out * v[..., i - 1, j - 1] ** b
    return float(out) if out.ndim == 0 else out


def multi_index_count(n: int, p: int) -> int:
    """Number of multi-indices of total degree <= p on n(n+1)/2 slots."""
    r = n * (n + 1) // 2
    return math.comb(r + p, p)

