"""The real symplectic group of rank n, its action on the Siegel upper half
space H_n, automorphy factors, a matrix norm on the group, and reduction of
points of H_n into an approximate fundamental domain for the integral group.

Points Z = X + iY are kept as pairs of real symmetric matrices with Y
positive definite, stacked N at a time in a ``PointBatch``; the kernels
work on batches, and a ``SiegelPoint`` with the scalar functions is their
N = 1 case.  Group elements are stored as full 2n x 2n real arrays; the
block decomposition g = (A B; C D) is derived on access, so integral
elements round-trip exactly through the reduction bookkeeping.
"""

from __future__ import annotations

import itertools
import logging
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    NonIntegralError,
    NotPositiveDefiniteError,
    ReductionBudgetError,
    SingularMatrixError,
)
from .linalg import (
    _as_square,
    _posdef_floor,
    _require_symmetric,
    _eigh,
    _t,
    det_stack,
    inverse,
    spectral,
)

log = logging.getLogger(__name__)

SYMPLECTIC_TOL = 1e-10

REDUCTION_BUDGET = 10000
# A reduction step must raise det Im(Z) by a factor above 1 + _IMPROVE_TOL;
# Lagrange reduction of Im(Z) holds to a relative _LAGRANGE_TOL.
_IMPROVE_TOL = 1e-9
_LAGRANGE_TOL = 1e-12

# Floors for the least eigenvalue of Im(Z) after reduction, proved from the
# point at which ``reduce_batch`` stops, with t = _IMPROVE_TOL, e = _LAGRANGE_TOL.
# |x11| <= 1/2 by the translation (x - round(x) is exact), and the inversion
# at slot 1 (the full one in degree 1), of gain 1/|z11|^2, is not taken, so
# |z11|^2 >= 1/(1 + t) and y11 >= h = sqrt(1/(1 + t) - 1/4): the degree-1
# floor, sqrt(3)/2 less about 6e-10.  In degree 2:
#   * Y is Lagrange-reduced: 2|y12| <= (1 + e) y11 and y11 <= (1 + e) y22
#     (``_lagrange_2x2`` raises rather than return an unreduced Y);
#   * Gershgorin gives lambda_min >= min(y11, y22) - |y12|, and by the first
#     point y11 - |y12| >= y11 (1 - e)/2 and y22 - |y12| >= y11 (1/(1 + e) -
#     (1 + e)/2), the smaller factor of the two, so
#     lambda_min >= h (1/(1 + e) - (1 + e)/2), sqrt(3)/4 less about 3e-10.
# The returned point is that stopping point, the last iterate, so the floors
# hold for it as returned; it equals gamma . Z up to rounding.
_FLOOR_H = math.sqrt(1.0 / (1.0 + _IMPROVE_TOL) - 0.25)
FUNDAMENTAL_DOMAIN_DELTA = {
    1: _FLOOR_H,
    2: _FLOOR_H * (1.0 / (1.0 + _LAGRANGE_TOL) - (1.0 + _LAGRANGE_TOL) / 2.0),
}


def delta_for_degree(n: int) -> float:
    """Certified lower bound for the eigenvalues of Im(Z) after reduction."""
    if n not in FUNDAMENTAL_DOMAIN_DELTA:
        raise ValueError(f"no fundamental-domain floor configured for degree {n}")
    return FUNDAMENTAL_DOMAIN_DELTA[n]


def symplectic_form(n: int) -> np.ndarray:
    """The 2n x 2n block matrix (0 I; -I 0)."""
    j = np.zeros((2 * n, 2 * n))
    j[:n, n:] = np.eye(n)
    j[n:, :n] = -np.eye(n)
    return j


def is_symplectic(m, tol: float = SYMPLECTIC_TOL) -> bool:
    """Whether m^T J m = J holds entrywise within tol."""
    m = np.asarray(m, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] % 2 != 0 or m.shape[0] == 0:
        return False
    n = m.shape[0] // 2
    j = symplectic_form(n)
    return float(np.max(np.abs(m.T @ j @ m - j))) <= tol


@dataclass(frozen=True, eq=False, slots=True)
class PointBatch:
    """N points Z = X + iY of the degree-n Siegel upper half space, stacked
    as (N, n, n) arrays.  Construction validates every point once (X and Y
    symmetric, Y positive definite) with one eigensolve for the stack, kept
    as ``eigvals`` (decreasing) and ``eigvecs`` for Y^{-1}, Y^{1/2} and the
    growth right-hand sides."""

    X: np.ndarray
    Y: np.ndarray
    eigvals: np.ndarray = field(init=False, repr=False)
    eigvecs: np.ndarray = field(init=False, repr=False)
    # (expansion, read-only (N, dim) values) of the last expansion that
    # ``forms.evaluate`` summed here; None until then.
    _summed: tuple | None = field(init=False, repr=False)

    def __post_init__(self):
        x = _require_symmetric(self.X, "X", stacked=True)
        y = _require_symmetric(self.Y, "Y", stacked=True)
        if x.shape != y.shape:
            raise ValueError("X and Y must have the same shape")
        self._fill(x, y)

    @classmethod
    def _made(cls, x, y, eig=None) -> "PointBatch":
        """A batch of exactly symmetric x and y made here: no symmetry check,
        and no Y > 0 check either when its eigendecomposition is given."""
        batch = object.__new__(cls)
        batch._fill(x, y, eig)
        return batch

    def _fill(self, x, y, eig=None) -> None:
        if eig is None:
            w, q = _eigh(y)
            low = w[:, -1] <= _posdef_floor(w)
            if low.any():
                raise NotPositiveDefiniteError(
                    f"imaginary part is not positive definite (min eigenvalue {w[low, -1][0]:.3e})"
                )
            eig = w, q
        for name, value in zip(("X", "Y", "eigvals", "eigvecs"), (x, y, *eig)):
            value.flags.writeable = False
            object.__setattr__(self, name, value)
        object.__setattr__(self, "_summed", None)

    @classmethod
    def from_points(cls, points) -> "PointBatch":
        """Stack SiegelPoints of one degree with the eigendecompositions they
        were validated with (ValueError if there are none or degrees differ)."""
        batches = [z.batch for z in points]
        if not batches:
            raise ValueError("no points to stack")
        x, y, w, q = (
            np.concatenate([getattr(b, name) for b in batches])
            for name in ("X", "Y", "eigvals", "eigvecs")
        )
        return cls._made(x, y, (w, q))

    def __len__(self) -> int:
        return self.X.shape[0]

    @property
    def n(self) -> int:
        return self.X.shape[-1]

    # Derived arrays are recomputed on use, not kept: a point that outlives
    # its computation holds X, Y, the eigendecomposition and one array, the
    # values F(Z) of the last expansion summed here (``_summed``), so that
    # ``phi`` right after ``evaluate`` of the same expansion sums nothing.
    @property
    def mat(self) -> np.ndarray:
        """Z as a complex (N, n, n) array."""
        return self.X + 1j * self.Y

    @property
    def y_inv(self) -> np.ndarray:
        return spectral(self.eigvals, self.eigvecs, 1.0 / self.eigvals)

    @property
    def y_sqrt(self) -> np.ndarray:
        return spectral(self.eigvals, self.eigvecs, np.sqrt(self.eigvals))

    def point(self, i: int) -> "SiegelPoint":
        """The i-th point, sharing this batch's validated data."""
        if len(self) == 1 and i in (0, -1):
            return SiegelPoint._of(self)
        i = range(len(self))[i]
        s = slice(i, i + 1)
        return SiegelPoint._of(
            PointBatch._made(self.X[s], self.Y[s], (self.eigvals[s], self.eigvecs[s]))
        )


class SiegelPoint:
    """A point Z = X + iY of the degree-n Siegel upper half space: the
    N = 1 case of a PointBatch, kept as ``batch``."""

    __slots__ = ("batch",)

    def __init__(self, X, Y):
        self.batch = PointBatch(np.asarray(X)[None], np.asarray(Y)[None])

    @classmethod
    def _of(cls, batch: PointBatch) -> "SiegelPoint":
        z = object.__new__(cls)
        z.batch = batch
        return z

    def __repr__(self) -> str:
        return f"SiegelPoint(X={self.X!r}, Y={self.Y!r})"

    @property
    def X(self) -> np.ndarray:
        return self.batch.X[0]

    @property
    def Y(self) -> np.ndarray:
        return self.batch.Y[0]

    @property
    def n(self) -> int:
        return self.batch.n

    @property
    def mat(self) -> np.ndarray:
        """Z as a complex n x n array."""
        return self.batch.mat[0]

    @classmethod
    def from_complex(cls, z) -> "SiegelPoint":
        z = np.asarray(z, dtype=complex)
        return cls(z.real.copy(), z.imag.copy())

    @classmethod
    def base_point(cls, n: int) -> "SiegelPoint":
        """The point i * identity."""
        return cls(np.zeros((n, n)), np.eye(n))


@dataclass(frozen=True, eq=False)
class SymplecticMatrix:
    """An element of the rank-n real symplectic group, stored as a full
    2n x 2n array."""

    mat: np.ndarray

    def __post_init__(self):
        m = np.array(self.mat, dtype=float)
        if not is_symplectic(m):
            raise ValueError("matrix does not satisfy the symplectic relations")
        m.flags.writeable = False
        object.__setattr__(self, "mat", m)

    @classmethod
    def _integral(cls, g: np.ndarray) -> "SymplecticMatrix":
        """The element of an int64 matrix g, checked exactly: g^T J g = J."""
        if not (g.T @ _INT_J[len(g) // 2] @ g == _INT_J[len(g) // 2]).all():
            raise ValueError("matrix does not satisfy the symplectic relations")
        m = object.__new__(cls)
        object.__setattr__(m, "mat", g.astype(float))
        m.mat.flags.writeable = False
        return m

    @property
    def n(self) -> int:
        return self.mat.shape[0] // 2

    # The blocks of g = (A B; C D).
    A = property(lambda self: _blocks(self.mat, self.n)[0])
    B = property(lambda self: _blocks(self.mat, self.n)[1])
    C = property(lambda self: _blocks(self.mat, self.n)[2])
    D = property(lambda self: _blocks(self.mat, self.n)[3])

    def __matmul__(self, other: "SymplecticMatrix") -> "SymplecticMatrix":
        return SymplecticMatrix(self.mat @ other.mat)

    @classmethod
    def identity(cls, n: int) -> "SymplecticMatrix":
        return cls(np.eye(2 * n))


def translation(b) -> SymplecticMatrix:
    """The element (I b; 0 I) acting by Z -> Z + b, for symmetric b."""
    b = _require_symmetric(b, "translation block")
    n = b.shape[0]
    m = np.eye(2 * n)
    m[:n, n:] = b
    return SymplecticMatrix(m)


def gl_embedding(u) -> SymplecticMatrix:
    """The element (u 0; 0 u^-T) acting by Z -> u Z u^T, for invertible u."""
    u = np.asarray(u, dtype=float)
    u = _as_square(u, "gl block")
    n = u.shape[0]
    m = np.zeros((2 * n, 2 * n))
    m[:n, :n] = u
    m[n:, n:] = inverse(u).T
    return SymplecticMatrix(m)


def inversion(n: int) -> SymplecticMatrix:
    """The full inversion (0 -I; I 0) = J^T acting by Z -> -Z^{-1}."""
    return SymplecticMatrix(symplectic_form(n).T)


def embedded_inversion(n: int, i: int) -> SymplecticMatrix:
    """The degree-1 inversion embedded at diagonal slot i (1-based)."""
    if not (1 <= i <= n):
        raise ValueError(f"slot {i} outside 1..{n}")
    m, slot = np.eye(2 * n), [i - 1, n + i - 1]
    m[np.ix_(slot, slot)] = [[0.0, -1.0], [1.0, 0.0]]
    return SymplecticMatrix(m)


def compact_from_unitary_batch(u: np.ndarray) -> np.ndarray:
    """The maximal-compact elements (A B; -B A) built from an (N, n, n) stack
    of unitaries u = A + iB, as an (N, 2n, 2n) array."""
    return np.block([[u.real, u.imag], [-u.imag, u.real]])


def compact_from_unitary(u) -> SymplecticMatrix:
    """The maximal-compact element (A B; -B A) built from a unitary u = A + iB."""
    return SymplecticMatrix(compact_from_unitary_batch(np.asarray(u, dtype=complex)[None])[0])


def _blocks(g: np.ndarray, n: int):
    return g[..., :n, :n], g[..., :n, n:], g[..., n:, :n], g[..., n:, n:]


def automorphy_factor_batch(g, points: PointBatch) -> np.ndarray:
    """C Z + D for one 2n x 2n matrix g or an (N, 2n, 2n) stack, against a
    batch (either side may have one element); complex (N, n, n)."""
    _, _, c, d = _blocks(np.asarray(g, dtype=float), points.n)
    return c @ points.mat + d


def act_batch(g, points: PointBatch) -> PointBatch:
    """The fractional-linear action (A Z + B)(C Z + D)^{-1}, broadcast as in
    ``automorphy_factor_batch``."""
    a, b, c, d = _blocks(np.asarray(g, dtype=float), points.n)
    zc = points.mat
    num = a @ zc + b
    den = c @ zc + d
    try:
        w = _t(np.linalg.solve(_t(den), _t(num)))  # num @ den^{-1}
    except np.linalg.LinAlgError as exc:
        raise SingularMatrixError(f"automorphy factor C Z + D is singular ({exc})")
    w = (w + _t(w)) / 2.0
    return PointBatch._made(w.real.copy(), w.imag.copy())


def from_point_batch(points: PointBatch) -> np.ndarray:
    """The upper-triangular elements (Y^{1/2}  X Y^{-1/2}; 0  Y^{-1/2})
    sending i*identity to each point, as an (N, 2n, 2n) array."""
    n = points.n
    rinv = spectral(points.eigvals, points.eigvecs, 1.0 / np.sqrt(points.eigvals))
    m = np.zeros((len(points), 2 * n, 2 * n))
    m[:, :n, :n] = points.y_sqrt
    m[:, :n, n:] = points.X @ rinv
    m[:, n:, n:] = rinv
    return m


def automorphy_factor(g: SymplecticMatrix, z: SiegelPoint) -> np.ndarray:
    """The complex n x n factor C Z + D."""
    return automorphy_factor_batch(g.mat, z.batch)[0]


def act(g: SymplecticMatrix, z: SiegelPoint) -> SiegelPoint:
    """The fractional-linear action (A Z + B)(C Z + D)^{-1}."""
    return act_batch(g.mat, z.batch).point(0)


def from_point(z: SiegelPoint) -> SymplecticMatrix:
    """The upper-triangular element sending i*identity to Z = X + iY,
    namely (Y^{1/2}  X Y^{-1/2}; 0  Y^{-1/2})."""
    return SymplecticMatrix(from_point_batch(z.batch)[0])


def group_norm(g: SymplecticMatrix) -> float:
    """sqrt(Tr(g^T g)), the Frobenius norm of the matrix."""
    return float(np.sqrt(np.sum(g.mat * g.mat)))


def is_in_principal_congruence(g: SymplecticMatrix, level: int) -> bool:
    """Whether g is congruent to the identity modulo ``level`` entrywise."""
    if level < 1 or level != int(level):
        raise ValueError("level must be a positive integer")
    m = g.mat
    r = np.round(m)
    if float(np.max(np.abs(m - r))) > 1e-9:
        raise NonIntegralError("matrix entries are not near integers")
    diff = r.astype(np.int64) - np.eye(m.shape[0], dtype=np.int64)
    return bool(np.all(diff % int(level) == 0))


# ---------------------------------------------------------------------------
# Reduction to an approximate fundamental domain (degrees 1 and 2).
# ---------------------------------------------------------------------------


_ADJ_SIGN = np.array([[1, -1], [-1, 1]])


def _adjugate(m: np.ndarray) -> np.ndarray:
    # Of each matrix of a stack of 2x2 matrices.
    return _t(m)[..., ::-1, ::-1] * _ADJ_SIGN


_INT_EYE = {k: np.eye(k, dtype=np.int64) for k in (2, 4)}
_INT_J = {n: symplectic_form(n).astype(np.int64) for n in (1, 2)}


def _lagrange_2x2(y: np.ndarray) -> np.ndarray:
    """Integer u with det +-1 per matrix of an (N, 2, 2) stack such that
    u y u^T is Lagrange-reduced: 2|y12| <= y11 <= y22, to a relative
    _LAGRANGE_TOL.  Raises ReductionBudgetError after 64 rounds."""
    # The entries of u y u^T, rounded as the products t y t^T would round them.
    y11, y12, y22 = y[:, 0, 0], y[:, 0, 1], y[:, 1, 1]
    u, live = np.repeat(_INT_EYE[2][None], len(y), axis=0), np.ones(len(y), dtype=bool)
    for _ in range(64):
        swap = live & (y11 > y22 * (1.0 + 1e-15))
        swapped = swap.any()
        if swapped:
            y11, y22 = np.where(swap, y22, y11), np.where(swap, y11, y22)
            u[swap] = u[swap, ::-1]
        # The shear (1 0; -r 1) with r = round(y12 / y11); the identity once done.
        r = np.where(live, np.rint(y12 / y11), 0.0)
        if r.any():
            u[:, 1] -= r.astype(np.int64)[:, None] * u[:, 0]
            y12, y22 = y12 - r * y11, y22 - r * y12
            y22 = y22 - r * y12  # again, with the sheared y12: t y t^T's order
        elif not swapped and (y11 > 0.0).all():
            # Then y11 <= y22 (1 + 1e-15) and |y12| <= y11 / 2: all reduced.
            return u
        live &= ~(
            (2.0 * np.abs(y12) <= y11 * (1.0 + _LAGRANGE_TOL))
            & (y11 <= y22 * (1.0 + _LAGRANGE_TOL))
        )
        if not live.any():
            return u
    raise ReductionBudgetError("Lagrange reduction of Im(Z) did not converge within 64 rounds")


def _build_candidates(n: int):
    # The full inversion and, for n = 2, the embedded degree-1 inversions
    # (the primary candidates), then for n = 2 the inversion composed with
    # unit translations, Z -> -(Z + T)^{-1}.  The latter are consulted only
    # when no primary candidate improves; they sharpen the degree-2 domain.
    j = inversion(n).mat
    primary = [j] + [embedded_inversion(n, i).mat for i in range(1, n + 1) if n > 1]
    units = itertools.product((-1, 0, 1), repeat=3) if n == 2 else ()
    extended = [j @ translation([[a, b], [b, c]]).mat for a, b, c in units if a or b or c]
    cands = np.array(primary + extended).astype(np.int64)
    blocks = tuple(blk.astype(complex) for blk in _blocks(cands, n))
    return cands, len(primary), blocks, _det_form(cands, n)


def _det_form(cands: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """(p, p0) with det(C Z + D) = _minors(Z) @ p + p0 for every (C, D) of
    a stack of elements and every symmetric Z."""
    _, _, c, d = _blocks(cands, n)
    if n == 1:
        return c[:, 0].T.astype(complex), d[:, 0, 0].astype(complex)
    # Cauchy-Binet on [C D] [Z; I]: the 2x2 minors of [Z; I] on rows
    # (01, 02, 03, 12, 13, 23) are (det Z, -z12, z11, -z22, z12, 1).
    cd = np.concatenate([c, d], axis=-1)
    q = {
        (i, j): cd[:, 0, i] * cd[:, 1, j] - cd[:, 0, j] * cd[:, 1, i]
        for i, j in itertools.combinations(range(4), 2)
    }
    p = np.array([q[0, 1], q[0, 3], q[1, 3] - q[0, 2], -q[1, 2]])
    return p.astype(complex), q[2, 3].astype(complex)


def _minors(zc: np.ndarray) -> np.ndarray:
    """Per point, the minors of [Z; I] that det(C Z + D) is linear in:
    (z) in degree 1, (det Z, z11, z12, z22) in degree 2."""
    if zc.shape[-1] == 1:
        return zc[:, 0]
    m = zc.reshape(-1, 4)[:, [0, 0, 1, 3]]  # z11 (for det Z), z11, z12, z22
    m[:, 0] = m[:, 1] * m[:, 3] - m[:, 2] * m[:, 2]
    return m


_CANDIDATES = {n: _build_candidates(n) for n in (1, 2)}


def _candidate_dets(zc: np.ndarray) -> np.ndarray:
    """det(C Z + D) for every point of a complex (N, n, n) stack and every
    inversion candidate, as an (N, K) array."""
    p, p0 = _CANDIDATES[zc.shape[-1]][3]
    return _minors(zc) @ p + p0


# A candidate moves a point when its gain 1/|det(C Z + D)|^2 exceeds
# 1 + _IMPROVE_TOL, i.e. when |det(C Z + D)|^2 is below this.
_MOVE_BELOW = 1.0 / (1.0 + _IMPROVE_TOL)


def reduce_batch(
    points: PointBatch,
    budget: int = REDUCTION_BUDGET,
) -> tuple[np.ndarray, PointBatch]:
    """Move every point of a batch into an approximate fundamental domain
    for the integral group.

    Highest-point iteration: repeatedly Lagrange-reduce Y by a unimodular
    congruence, translate X into [-1/2, 1/2], and apply the inversion
    candidate raising det(Im) most, by a factor above 1 + 1e-9 (primary
    candidates first); a point is masked out when none improves it.  Since
    det Im(gamma Z) = det Im Z / |det(C Z + D)|^2, the candidates are scored
    by det(C Z + D) alone, all of them on all moving points at once, and
    the action is formed only for each moved point's winner.  Returns
    (gamma, reduced): integral (N, 2n, 2n) gammas and the last iterates, on
    which the stopping rule held, equal to act_batch(gamma, points) up to
    rounding.  Raises ReductionBudgetError after ``budget`` steps.
    """
    n = points.n
    if n not in (1, 2):
        raise ValueError(f"reduction implemented for degrees 1 and 2, got {n}")
    cands, primary, (a, b, c, d), _ = _CANDIDATES[n]
    gamma = np.repeat(_INT_EYE[2 * n][None], len(points), axis=0)
    # live: the points still moving; g, zc: their gammas and positions;
    # last: each point's position when the stopping rule was last evaluated.
    live, g, zc = np.arange(len(points)), gamma.copy(), points.mat
    last = np.empty_like(zc)
    for steps in itertools.count(1):
        if steps > budget:
            raise ReductionBudgetError(f"reduction did not stabilise within {budget} steps")
        if n == 2:
            u = _lagrange_2x2(zc.imag)
            uf = u.astype(float)
            zc = uf @ zc @ _t(uf)
            zc = (zc + _t(zc)) / 2.0
            # (u 0; 0 u^-T) with the exact integer inverse transpose (det u = +-1).
            g[:, :n] = u @ g[:, :n]
            g[:, n:] = (_t(_adjugate(u)) * det_stack(u)[:, None, None]) @ g[:, n:]
        t = -np.rint(zc.real)
        g[:, :n] += t.astype(np.int64) @ g[:, n:]
        zc = zc + t
        dets = _candidate_dets(zc)
        det_sq = dets.real**2 + dets.imag**2  # 1 / gain
        # The first candidate with the largest gain wins, primary ones first.
        head = det_sq[:, :primary]
        best, moved = head.argmin(axis=1), head.min(axis=1) < _MOVE_BELOW
        if len(cands) > primary:
            tail = det_sq[:, primary:]
            use_tail = ~moved & (tail.min(axis=1) < _MOVE_BELOW)
            best = np.where(use_tail, primary + tail.argmin(axis=1), best)
            moved |= use_tail
        gamma[live], last[live] = g, zc
        live = live[moved]
        if not live.size:
            break
        best = best[moved]
        g = cands[best] @ g[moved]
        # (A Z + B)(C Z + D)^{-1} = (A Z + B) adj(C Z + D) / det(C Z + D).
        zc, den = zc[moved], dets[moved, best][:, None, None]
        num = a[best] @ zc + b[best]
        if n == 1:
            zc = num / den
        else:
            w = num @ _adjugate(c[best] @ zc + d[best]) / den
            zc = (w + _t(w)) / 2.0
    log.debug("reduction stabilised after %d steps", steps)
    # Exactly symmetric: the iterates are symmetrised, the translations symmetric.
    return gamma, PointBatch._made(last.real.copy(), last.imag.copy())


def reduce_to_fundamental(
    z: SiegelPoint,
    budget: int = REDUCTION_BUDGET,
) -> tuple[SymplecticMatrix, SiegelPoint]:
    """Move Z into an approximate fundamental domain for the integral group:
    the N = 1 case of ``reduce_batch``.  Returns (gamma, z_red): gamma integral
    and exactly symplectic, z_red the last iterate, act(gamma, z) up to rounding."""
    gamma, reduced = reduce_batch(z.batch, budget)
    return SymplecticMatrix._integral(gamma[0]), reduced.point(0)
