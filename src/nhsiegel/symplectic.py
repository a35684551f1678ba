"""The real symplectic group of rank n, its action on the Siegel upper half
space H_n, automorphy factors, and reduction of points of H_n into an
approximate fundamental domain for the integral group.

Points Z = X + iY are kept as pairs of real symmetric matrices with Y
positive definite, stacked N at a time in a ``PointBatch``; the kernels
work on batches, and a ``SiegelPoint`` with the scalar functions is their
N = 1 case.  Group elements are stored as full 2n x 2n real arrays; the
block decomposition g = (A B; C D) is sliced out by the kernels, so integral
elements round-trip exactly through the reduction bookkeeping.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import EigenIterationError, ReductionBudgetError, SingularMatrixError
from .linalg import _eigh, _posdef_floor, _require_symmetric, _t, spectral

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
# hold for it as returned.  It is gamma . Z up to rounding errors that grow
# with the condition of Y and the size of X.
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


def is_symplectic(m) -> bool:
    """Whether m^T J m = J holds entrywise within SYMPLECTIC_TOL."""
    m = np.asarray(m, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] % 2 != 0 or m.shape[0] == 0:
        return False
    j = symplectic_form(m.shape[0] // 2)
    return float(np.max(np.abs(m.T @ j @ m - j))) <= SYMPLECTIC_TOL


@dataclass(frozen=True, eq=False, slots=True)
class PointBatch:
    """N points Z = X + iY of the degree-n Siegel upper half space, stacked
    as (N, n, n) arrays.  Construction validates every point once (X and Y
    finite and symmetric, Y positive definite) with one eigensolve for the
    stack, kept as ``eigvals`` (decreasing) and ``eigvecs`` for Y^{-1},
    Y^{1/2} and the growth right-hand sides."""

    X: np.ndarray
    Y: np.ndarray
    eigvals: np.ndarray = field(init=False, repr=False)
    eigvecs: np.ndarray = field(init=False, repr=False)
    # (expansion, read-only (N, dim) values) of the last expansion that
    # ``forms.evaluate`` summed here; None until then.
    _summed: tuple | None = field(init=False, repr=False)

    def __post_init__(self):
        x = _require_symmetric(self.X, "X", stacked=True)
        if np.count_nonzero(np.isfinite(x)) < x.size:
            raise ValueError("X has non-finite entries")
        y = _require_symmetric(self.Y, "Y", stacked=True)
        if x.shape != y.shape:
            raise ValueError("X and Y must have the same shape")
        self._fill(x, y)

    @classmethod
    def _made(cls, x, y, eig=None) -> "PointBatch":
        """A batch of exactly symmetric x and y made here: no symmetry check,
        and no Y > 0 check either when its eigendecomposition is given.  A
        computed Y that is not positive definite is a numerical failure, so
        it raises SingularMatrixError, not the ValueError of bad input."""
        batch = object.__new__(cls)
        batch._fill(x, y, eig, computed=True)
        return batch

    def _fill(self, x, y, eig=None, computed=False) -> None:
        if eig is not None:
            w, q = eig
        else:
            # Y's finiteness is tested once, by the eigensolve.
            try:
                w, q = _eigh(y)
            except EigenIterationError:
                if computed or np.count_nonzero(np.isfinite(y)) == y.size:
                    raise
                raise ValueError("Y has non-finite entries") from None
            low = w[:, -1] <= _posdef_floor(w[:, 0])
            if np.count_nonzero(low):
                message = f"imaginary part is not positive definite (min eigenvalue {w[low, -1][0]:.3e})"
                if computed:
                    raise SingularMatrixError(f"computed point's {message}")
                raise ValueError(message)
        x.flags.writeable = y.flags.writeable = w.flags.writeable = q.flags.writeable = False
        object.__setattr__(self, "X", x)
        object.__setattr__(self, "Y", y)
        object.__setattr__(self, "eigvals", w)
        object.__setattr__(self, "eigvecs", q)
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
        if np.count_nonzero(g.T @ _INT_J[len(g) // 2] @ g != _INT_J[len(g) // 2]):
            raise ValueError("matrix does not satisfy the symplectic relations")
        m = object.__new__(cls)
        object.__setattr__(m, "mat", g.astype(float))
        m.mat.flags.writeable = False
        return m

    def __matmul__(self, other: "SymplecticMatrix") -> "SymplecticMatrix":
        return SymplecticMatrix(self.mat @ other.mat)


def translation(b) -> SymplecticMatrix:
    """The element (I b; 0 I) acting by Z -> Z + b, for symmetric b."""
    b = _require_symmetric(b, "translation block")
    n = b.shape[0]
    m = np.eye(2 * n)
    m[:n, n:] = b
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


def compact_from_unitary(u):
    """The maximal-compact element (A B; -B A) built from a unitary u = A + iB:
    a SymplecticMatrix for one n x n unitary; for an (N, n, n) stack of
    them, an (N, 2n, 2n) array."""
    u = np.asarray(u, dtype=complex)
    k = np.block([[u.real, u.imag], [-u.imag, u.real]])
    return k if u.ndim == 3 else SymplecticMatrix(k)


def _blocks(g: np.ndarray, n: int):
    return g[..., :n, :n], g[..., :n, n:], g[..., n:, :n], g[..., n:, n:]


def automorphy_factor(g, z: SiegelPoint | PointBatch):
    """The complex factor C Z + D: n x n for a SymplecticMatrix g and a
    SiegelPoint; (N, n, n) for a 2n x 2n matrix or an (N, 2n, 2n) stack g
    against a PointBatch (either side may have one element)."""
    points = z.batch if isinstance(z, SiegelPoint) else z
    _, _, c, d = _blocks(np.asarray(g if points is z else g.mat, dtype=float), points.n)
    out = c @ points.mat + d
    return out if points is z else out[0]


def act(g, z: SiegelPoint | PointBatch):
    """The fractional-linear action (A Z + B)(C Z + D)^{-1}: a SiegelPoint
    for a SiegelPoint, a PointBatch for a PointBatch, with g as in
    ``automorphy_factor``."""
    points = z.batch if isinstance(z, SiegelPoint) else z
    a, b, c, d = _blocks(np.asarray(g if points is z else g.mat, dtype=float), points.n)
    zc = points.mat
    num = a @ zc + b
    den = c @ zc + d
    try:
        w = _t(np.linalg.solve(_t(den), _t(num)))  # num @ den^{-1}
    except np.linalg.LinAlgError as exc:
        raise SingularMatrixError(f"automorphy factor C Z + D is singular ({exc})")
    w = (w + _t(w)) / 2.0
    moved = PointBatch._made(w.real.copy(), w.imag.copy())
    return moved if points is z else moved.point(0)


def from_point(z: SiegelPoint | PointBatch):
    """The upper-triangular element (Y^{1/2}  X Y^{-1/2}; 0  Y^{-1/2})
    sending i*identity to Z = X + iY: a SymplecticMatrix for a SiegelPoint;
    for a PointBatch, an (N, 2n, 2n) array."""
    points = z.batch if isinstance(z, SiegelPoint) else z
    n = points.n
    rinv = spectral(points.eigvals, points.eigvecs, 1.0 / np.sqrt(points.eigvals))
    m = np.zeros((len(points), 2 * n, 2 * n))
    m[:, :n, :n] = points.y_sqrt
    m[:, :n, n:] = points.X @ rinv
    m[:, n:, n:] = rinv
    return m if points is z else SymplecticMatrix(m[0])


# ---------------------------------------------------------------------------
# Reduction to an approximate fundamental domain (degrees 1 and 2).
# ---------------------------------------------------------------------------


_ADJ_SIGN = np.array([[1, -1], [-1, 1]])


def _adjugate(m: np.ndarray) -> np.ndarray:
    # Of each matrix of a stack of 2x2 matrices.
    return _t(m)[..., ::-1, ::-1] * _ADJ_SIGN


_INT_EYE = {k: np.eye(k, dtype=np.int64) for k in (2, 4)}
_INT_J = {n: symplectic_form(n).astype(np.int64) for n in (1, 2)}
# J^T g = (-g_2; g_1) for a 2 x 2 g: its rows reversed, the first negated.
_INVERT_ROWS = np.array([[-1], [1]])
_SWAP_ROWS = np.array([1, 0, 3, 2])


def _lagrange_2x2(y: np.ndarray) -> np.ndarray:
    """int64 diag(u, u^-T) per matrix of an (N, 2, 2) stack, u integral with
    det +-1 such that u y u^T is Lagrange-reduced: 2|y12| <= y11 <= y22, to
    a relative _LAGRANGE_TOL; the identity where y already is.  A swap
    permutes the rows [1, 0, 3, 2]; the shear (1 0; -r 1) of u is the shear
    (1 r; 0 1) of u^-T.  Every point takes part in the first round; later
    rounds mask out the points already reduced.  A round in which every
    point swaps swaps the arrays themselves, with no mask.  Raises
    ReductionBudgetError after 64 rounds."""
    # The entries of u y u^T, rounded as the products t y t^T would round them.
    y11, y12, y22 = y[:, 0, 0], y[:, 0, 1], y[:, 1, 1]
    m, live = _INT_EYE[4][None].repeat(len(y), axis=0), None  # None: all live
    for _ in range(64):
        swap = y11 > y22 * (1.0 + 1e-15)
        if live is not None:
            swap &= live
        # count_nonzero, not any(): on a few entries it costs a third as much.
        swapped = np.count_nonzero(swap)
        if swapped == len(swap):
            y11, y22, m = y22, y11, m.take(_SWAP_ROWS, axis=1)
        elif swapped:
            y11, y22 = np.where(swap, y22, y11), np.where(swap, y11, y22)
            m[swap] = m[swap].take(_SWAP_ROWS, axis=1)
        # The shear (1 0; -r 1) with r = round(y12 / y11); the identity once done.
        r = np.rint(y12 / y11)
        if live is not None:
            r = np.where(live, r, 0.0)
        if np.count_nonzero(r):
            ri = r.astype(np.int64)[:, None]
            m[:, 1] -= ri * m[:, 0]
            m[:, 2] += ri * m[:, 3]
            y12, y22 = y12 - r * y11, y22 - r * y12
            y22 = y22 - r * y12  # again, with the sheared y12: t y t^T's order
        elif not swapped and np.count_nonzero(y11 > 0.0) == len(y11):
            # Then y11 <= y22 (1 + 1e-15) and |y12| <= y11 / 2: all reduced.
            return m
        done = (2.0 * np.abs(y12) <= y11 * (1.0 + _LAGRANGE_TOL)) & (
            y11 <= y22 * (1.0 + _LAGRANGE_TOL)
        )
        live = ~done if live is None else live & ~done
        if not np.count_nonzero(live):
            return m
    raise ReductionBudgetError("Lagrange reduction of Im(Z) did not converge within 64 rounds")


# The inversions of Siegel's reduction: the full one and those embedded at
# slots 1 and 2, as one int64 (3, 4, 4) stack.  The floors above read only
# slot 1's stopping rule; the other two raise det Im Z further.  Their
# factors C Z + D are Z, (z11 z12; 0 1) and (1 0; z12 z22), of
# determinants det Z, z11 and z22.
_CANDIDATES = np.array(
    [inversion(2).mat] + [embedded_inversion(2, i).mat for i in (1, 2)]
).astype(np.int64)
# Per candidate, the stacked blocks ([A; C], [B; D]) as one (3, 2, 4, 2)
# array, so that one gather and one product give A Z + B over C Z + D.
_STACKED_BLOCKS = np.stack(
    [np.concatenate(_blocks(_CANDIDATES, 2)[i::2], axis=1) for i in (0, 1)], axis=1
).astype(complex)


def _candidate_dets(zc: np.ndarray) -> np.ndarray:
    """det(C Z + D) for every point of a complex (N, 2, 2) stack and every
    inversion candidate: (det Z, z11, z22) as an (N, 3) array."""
    dets = zc.reshape(-1, 4).take([0, 0, 3], axis=1)  # z11 (for det Z), z11, z22
    dets[:, 0] = dets[:, 1] * dets[:, 2] - zc[:, 0, 1] * zc[:, 0, 1]
    return dets


# A candidate moves a point when its gain 1/|det(C Z + D)|^2 exceeds
# 1 + _IMPROVE_TOL, i.e. when |det(C Z + D)|^2 is below this.
_MOVE_BELOW = 1.0 / (1.0 + _IMPROVE_TOL)


def reduce_batch(points: PointBatch) -> tuple[np.ndarray, PointBatch]:
    """Move every point of a batch into an approximate fundamental domain
    for the integral group.

    Both degrees run one loop, which holds the step budget and the moving
    points and writes gamma and the point back only on a step where some
    points stop and others move on; each degree gives it a step and a move.
    Degree 1 runs the classical loop on the complex (N, 1, 1) stack:
    translate x into [-1/2, 1/2], then invert z -> -1/z while that raises y
    by a factor above 1 + 1e-9.  Degree 2 runs Siegel's reduction:
    Lagrange-reduce Y by a unimodular congruence, translate X into
    [-1/2, 1/2], and apply whichever of the full inversion and the
    inversions embedded at slots 1 and 2 raises det(Im) most by such a
    factor.  Since det Im(gamma Z) = det Im Z / |det(C Z + D)|^2, these
    three are scored by det Z, z11 and z22 alone, on all moving points at
    once; the action is formed only for each moved point's winner, and
    gamma is multiplied by diag(u, u^-T) only on a step where u is not the
    identity everywhere and is translated in place.  Returns (gamma,
    reduced): integral (N, 2n, 2n) gammas and the last iterates, on which
    the stopping rule held.  A last iterate is act(gamma, points) up to
    rounding errors that grow with the condition of Y and the size of X.
    Raises ReductionBudgetError after REDUCTION_BUDGET steps; an empty batch
    takes none.  ValueError if an entry of X, or of a degree-2 translation,
    has magnitude 2^52 or more.
    """
    n = points.n
    if n not in (1, 2):
        raise ValueError(f"reduction implemented for degrees 1 and 2, got {n}")
    # Below 2^52, rint of an entry of X is exact and fits an int64 translation.
    if np.count_nonzero(np.abs(points.X) >= 2.0**52):
        raise ValueError("reduction needs every entry of X below 2^52 in magnitude")
    gamma, last = (_reduce_1 if n == 1 else _reduce_2)(points.mat, REDUCTION_BUDGET)
    # Exactly symmetric: the iterates are symmetrised, the translations symmetric.
    return gamma, PointBatch._made(last.real.copy(), last.imag.copy())


def _reduce(zc: np.ndarray, budget: int, step, move) -> tuple[np.ndarray, np.ndarray]:
    """The reduction loop of both degrees on a complex (N, n, n) stack zc:
    ``step(g, zc, first)`` translates and scores, giving (g, zc, moved, data),
    moved None if every point moves on; ``move(g, zc, *data)`` inverts."""
    # live: the points still moving; g, zc: their int64 gammas and complex
    # positions; gamma, last: each point's gamma and position when it
    # stopped, allocated on the first step where some point stops and
    # others move on; data: the per-point arrays that the move reads.
    live, g = np.arange(len(zc)), _INT_EYE[2 * zc.shape[-1]][None].repeat(len(zc), axis=0)
    gamma, last, steps = None, None, 0
    while live.size:
        if steps >= budget:
            raise ReductionBudgetError(f"reduction did not stabilise within {budget} steps")
        steps += 1
        g, zc, moved, data = step(g, zc, steps == 1)
        if moved is not None:
            if gamma is None:
                if not np.count_nonzero(moved):
                    break  # every point stops on this first stopping step
                gamma, last = np.empty_like(g), np.empty_like(zc)
            gamma[live], last[live] = g, zc
            live = live[moved]
            if not live.size:
                break
            g, zc, data = g[moved], zc[moved], [a[moved] for a in data]
        g, zc = move(g, zc, *data)
    return (g, zc) if gamma is None else (gamma, last)


def _step_1(g, zc, first):
    # Translate x into [-1/2, 1/2]; move on while |z|^2, the inversion's
    # 1 / gain, is below _MOVE_BELOW.
    t = -np.rint(zc.real)
    g[:, 0] += t.astype(np.int64)[:, 0] * g[:, 1]
    zc += t
    moved = (zc.real**2 + zc.imag**2 < _MOVE_BELOW)[:, 0, 0]
    return g, zc, None if np.count_nonzero(moved) == len(moved) else moved, ()


def _move_1(g, zc):
    return g[:, ::-1] * _INVERT_ROWS, -1.0 / zc


def _step_2(g, zc, first):
    m = _lagrange_2x2(zc.imag)
    # The congruence and the step diag(u, u^-T) are skipped when u is the
    # identity at every point: the congruence would only change signs of
    # zeros, which the translation resets.
    if np.count_nonzero(m[:, :2, :2] != _INT_EYE[2]):
        uc = m[:, :2, :2].astype(complex)  # cast once, not in each product
        zc = uc @ zc @ _t(uc)
        zc = (zc + _t(zc)) / 2.0
        g = m if first else m @ g
    t = -np.rint(zc.real)
    # Below 2^52 rint is exact and t fits an int64.  X below 2^52 does not
    # ensure it: the congruence by u can carry u X u^T past it.
    if np.count_nonzero(np.abs(t) >= 2.0**52):
        raise ValueError("reduction needs every translation below 2^52 in magnitude")
    # (I t; 0 I) g = (g_top + t g_bottom; g_bottom), exactly in integers.
    g[:, :2] += t.astype(np.int64) @ g[:, 2:]
    zc += t
    dets = _candidate_dets(zc)
    det_sq = dets.real**2 + dets.imag**2  # 1 / gain
    # The first candidate with the largest gain wins.
    best, moved = det_sq.argmin(axis=1), det_sq.min(axis=1) < _MOVE_BELOW
    return g, zc, None if np.count_nonzero(moved) == len(moved) else moved, (best, dets)


def _move_2(g, zc, best, dets):
    # gamma first: after the action, this product measured about 3 us slower.
    g = _CANDIDATES[best] @ g
    # (A Z + B)(C Z + D)^{-1} = (A Z + B) adj(C Z + D) / det(C Z + D).
    blocks = _STACKED_BLOCKS[best]
    w = blocks[:, 0] @ zc + blocks[:, 1]  # (A Z + B; C Z + D)
    w = w[:, :2] @ _adjugate(w[:, 2:]) / dets[np.arange(len(best)), best][:, None, None]
    return g, (w + _t(w)) / 2.0


# The loop bound to each degree: _reduce_n(zc, budget).
_reduce_1 = functools.partial(_reduce, step=_step_1, move=_move_1)
_reduce_2 = functools.partial(_reduce, step=_step_2, move=_move_2)


def reduce_to_fundamental(z: SiegelPoint) -> tuple[SymplecticMatrix, SiegelPoint]:
    """Move Z into an approximate fundamental domain for the integral group:
    the N = 1 case of ``reduce_batch``.  Returns (gamma, z_red): gamma integral
    and exactly symplectic, z_red the last iterate: act(gamma, z) up to
    rounding errors that grow with the condition of Y and the size of X."""
    gamma, reduced = reduce_batch(z.batch)
    return SymplecticMatrix._integral(gamma[0]), reduced.point(0)
