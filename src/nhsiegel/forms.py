"""Nearly holomorphic vector-valued forms as truncated Fourier expansions.

A form of degree n, near-holomorphy degree p, and level N is stored as a
finite coefficient map

    (beta, S)  ->  a in V,

where beta ranges over multi-indices of total degree <= p on the entries of
Y^{-1}, and S over positive semidefinite symmetric matrices with N*S
integral whose level Tr(N*S) is at most ``last_level(N, t_max)``; the series
tail starts at the next level.  Evaluation sums

    F(Z) = sum a(beta, S) exp(2 pi i Tr(S Z)) [Y^{-1}]^beta.

Coefficient growth is declared, not inferred: a package carries constants
(A, kappa) with ||a(beta, S)|| <= A (1 + Tr S)^kappa for every stored term,
which is what makes the truncation tail estimable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cache, cached_property, partial
from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import EigenIterationError, FormDataError, TailDivergenceError
from .linalg import MultiIndex, _posdef_floor, eigenvalues_sym, inv_stack, multi_index_count
from .reps import Rep, RepVector, highest_weight, norms, rep_matrix
from .symplectic import (
    PointBatch,
    SiegelPoint,
    SymplecticMatrix,
    act,
    automorphy_factor,
    inversion,
    translation,
)

_TWO_PI = 2.0 * math.pi

# Floating-point allowance added on top of series-tail thresholds when
# judging invariance deviations.
FLOAT_FLOOR = 1e-9


def _canonical_s_key(s_int: np.ndarray) -> tuple[tuple[int, ...], ...]:
    return tuple(tuple(int(x) for x in row) for row in s_int)


def trace_level(s_key) -> int:
    """The level m = Tr(N*S) of an integer key N*S: its diagonal sum."""
    return sum(row[i] for i, row in enumerate(s_key))


def last_level(level: int, t_max: float) -> int:
    """The highest level Tr(N*S) that the truncation bound t_max keeps;
    the series tail starts at the level after it."""
    if not (math.isfinite(t_max) and t_max >= 0):
        raise FormDataError(f"truncation bound must be finite and non-negative, got {t_max}")
    last = level * (t_max + 1e-12)
    if not math.isfinite(last):
        raise FormDataError(f"truncation bound {t_max} overflows at level {level}")
    return math.floor(last)


class _CheckedTerms(dict):
    """A coefficient map every term of which passed ``_checked_term``."""


def _checked_terms(n, p, level, rep, t_max, records, drop_above) -> _CheckedTerms:
    """The checked map of (where, beta, N*S, vector) ``records``; a record
    that is malformed or repeats the (beta, S) key of an earlier one raises
    FormDataError prefixed with its ``where``, and one above
    ``last_level(level, t_max)`` is dropped if ``drop_above``, else raises."""
    last = last_level(level, t_max)
    coeffs = _CheckedTerms()
    for where, beta, s_raw, value in records:
        key, vec = _checked_term(n, p, level, rep, beta, s_raw, value, where)
        if key in coeffs:
            raise FormDataError(f"{where}: duplicate (beta, S) record")
        if trace_level(key[1]) <= last:
            coeffs[key] = vec
        elif not drop_above:
            raise FormDataError(f"{where}: Tr(S) exceeds the truncation bound {t_max}")
    return coeffs


def _checked_term(n, p, level, rep, beta, s_raw, value, where: str):
    """The validated term (beta, N*S, vector) as (key, read-only vector);
    FormDataError prefixed with ``where`` if it is malformed."""
    if not isinstance(beta, MultiIndex):
        raise FormDataError(f"{where}: beta must be a MultiIndex")
    if beta.n != n:
        raise FormDataError(f"{where}: beta has dimension {beta.n}, expected {n}")
    if beta.degree > p:
        raise FormDataError(
            f"{where}: beta degree {beta.degree} exceeds near-holomorphy degree {p}"
        )
    s_arr = np.asarray(s_raw, dtype=float)
    if s_arr.shape != (n, n):
        raise FormDataError(f"{where}: S must be {n}x{n}")
    s_round = np.round(s_arr)
    if float(np.max(np.abs(s_arr - s_round))) > 1e-9:
        raise FormDataError(f"{where}: {int(level)}*S is not integral")
    if float(np.max(np.abs(s_round - s_round.T))) != 0.0:
        raise FormDataError(f"{where}: S is not symmetric")
    s_int = s_round.astype(np.int64)
    w = eigenvalues_sym(s_int / float(level))
    if float(w[-1]) < -1e-12:
        raise FormDataError(
            f"{where}: S is not positive semidefinite (min eigenvalue {w[-1]:.3e})"
        )
    vec = np.array(value, dtype=complex)
    if vec.shape != (rep.dim,):
        raise FormDataError(f"{where}: value has length {vec.shape}, expected {rep.dim}")
    if not np.all(np.isfinite(vec)):
        raise FormDataError(f"{where}: value has non-finite coordinates {vec.tolist()}")
    vec.flags.writeable = False
    return (beta, _canonical_s_key(s_int)), vec


@dataclass(frozen=True, eq=False)
class FourierExpansion:
    """Finitely supported Fourier data of a nearly holomorphic form.

    ``coefficients`` maps (MultiIndex, integer matrix key of N*S) to complex
    coordinate vectors in ``rep``.  The constructor rejects a term whose
    level Tr(N*S) exceeds ``last_level(level, t_max)``, as it rejects an S
    that fails positive semidefiniteness; ``from_terms`` drops such terms
    instead.  Both reject two keys whose S round to the same N*S.
    """

    n: int
    p: int
    level: int
    rep: Rep
    t_max: float
    coefficients: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.n < 1:
            raise FormDataError("degree must be positive")
        if self.level < 1 or self.level != int(self.level):
            raise FormDataError("level must be a positive integer")
        if self.p < 0:
            raise FormDataError("near-holomorphy degree must be non-negative")
        if self.rep.n != self.n:
            raise FormDataError(
                f"representation rank {self.rep.n} does not match degree {self.n}"
            )
        coeffs = self.coefficients
        if not isinstance(coeffs, _CheckedTerms):
            # The invariants hold no matter how the map was assembled.
            records = ((f"coefficient key {k!r}", *k, v) for k, v in dict(coeffs).items())
            coeffs = _checked_terms(self.n, self.p, self.level, self.rep, self.t_max, records, False)
        object.__setattr__(self, "coefficients", dict(coeffs))

    @classmethod
    def from_terms(
        cls,
        n: int,
        p: int,
        level: int,
        rep: Rep,
        t_max: float,
        terms: Iterable[tuple[MultiIndex, Sequence[Sequence[int]], Sequence[complex]]],
    ) -> "FourierExpansion":
        """Build an expansion from (beta, N*S integer matrix, vector) records,
        dropping those whose level Tr(N*S) exceeds ``last_level(level, t_max)``.

        Raises FormDataError naming the offending record when a beta exceeds
        degree p, an S is not positive semidefinite, or N*S is not integral.
        """
        cls(n, p, level, rep, t_max)  # the field checks, before any term is read
        records = ((f"coefficients[{idx}]", *term) for idx, term in enumerate(terms))
        coeffs = _checked_terms(n, p, level, rep, t_max, records, True)
        return cls(n=n, p=p, level=level, rep=rep, t_max=t_max, coefficients=coeffs)

    def terms(self) -> Iterable[tuple[MultiIndex, np.ndarray, np.ndarray]]:
        """Stored (beta, S, vector) triples with S as a float matrix."""
        for (beta, skey), vec in self.coefficients.items():
            s = np.array(skey, dtype=float) / float(self.level)
            yield beta, s, vec.copy()

    def __eq__(self, other) -> bool:
        if not isinstance(other, FourierExpansion):
            return NotImplemented
        if (self.n, self.p, self.level, self.rep, self.t_max) != (
            other.n,
            other.p,
            other.level,
            other.rep,
            other.t_max,
        ):
            return False
        if set(self.coefficients) != set(other.coefficients):
            return False
        return all(
            np.array_equal(vec, other.coefficients[key])
            for key, vec in self.coefficients.items()
        )

    @cached_property
    def _stacks(self) -> list[tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]]:
        # Per beta: the flat indices into Y^{-1} and the powers of its monomial (empty
        # at degree 0), the S matrices flattened and transposed to a complex (n*n, K)
        # array, cast once here rather than by every product, the (K, dim) values.
        by_beta: dict[MultiIndex, list] = {}
        for (beta, skey), vec in self.coefficients.items():
            by_beta.setdefault(beta, []).append((skey, vec))
        out = []
        for beta, items in by_beta.items():
            items.sort(key=lambda kv: kv[0])
            s_stack = np.array([k for k, _ in items], dtype=float) / float(self.level)
            v_stack = np.array([v for _, v in items], dtype=complex)
            pairs = [((i - 1) * self.n + j - 1, b) for i, j, b in beta.powers]
            flat, powers = np.array(pairs, dtype=int).reshape(-1, 2).T
            s_t = np.ascontiguousarray(s_stack.reshape(len(items), -1).T, dtype=complex)
            out.append((flat, powers, s_t, v_stack))
        return out


def evaluate(f: FourierExpansion, z: SiegelPoint | PointBatch):
    """Sum the stored expansion at Z, as a RepVector; at every point of a
    PointBatch, as the read-only (N, dim) array of coordinates.

    The batch keeps the values of the last expansion summed at it, so a
    second call with the same expansion object (``phi`` after ``evaluate``)
    returns them without summing; an expansion is immutable once built."""
    points = z.batch if isinstance(z, SiegelPoint) else z
    if points.n != f.n:
        raise ValueError(f"point degree {points.n} does not match form degree {f.n}")
    held = points._summed
    if held is None or held[0] is not f:
        held = (f, _series(f, points))
        object.__setattr__(points, "_summed", held)
    total = held[1]
    return total if points is z else RepVector(f.rep, total[0])


def _series(f: FourierExpansion, points: PointBatch) -> np.ndarray:
    """The sum at every point, read-only.  Y^{-1} is formed only when a
    stored beta has positive degree, and then once."""
    zc, y_inv, total = points.mat.reshape(len(points), -1), None, None
    for flat, powers, s_t, v_stack in f._stacks:
        part = np.exp(2j * math.pi * (zc @ s_t)) @ v_stack  # sum a exp(2 pi i Tr(S Z))
        if flat.size:
            y_inv = points.y_inv.reshape(len(points), -1) if y_inv is None else y_inv
            part *= np.multiply.reduce(y_inv.take(flat, axis=1) ** powers, axis=1)[:, None]
        total = part if total is None else total + part
    if total is None:
        total = np.zeros((len(points), f.rep.dim), dtype=complex)
    total.flags.writeable = False
    return total


@dataclass(frozen=True, eq=False)
class FormPackage:
    """An expansion bundled with its declared coefficient-growth constants.

    A package carries no group elements: ``check_invariance`` tests the
    transformation law against ``invariance_gammas(n, level)``, which the
    library works out from the degree and the level.
    """

    expansion: FourierExpansion
    growth_a: float
    growth_kappa: float

    def __post_init__(self):
        if not (self.growth_a >= 0.0 and math.isfinite(self.growth_a)):
            raise FormDataError("growth constant A must be finite and non-negative")
        if not math.isfinite(self.growth_kappa):
            raise FormDataError("growth exponent kappa must be finite")
        for beta, s, vec in self.expansion.terms():
            try:
                bound = self.growth_a * (1.0 + float(np.trace(s))) ** self.growth_kappa
            except OverflowError:
                raise FormDataError(
                    f"growth exponent kappa={self.growth_kappa:g} overflows the growth bound"
                ) from None
            vn = float(np.sqrt(np.sum(np.abs(vec) ** 2)))
            if vn > bound * (1.0 + 1e-12):
                raise FormDataError(
                    f"stored coefficient norm {vn:.6g} at Tr(S)={float(np.trace(s)):.6g} "
                    f"exceeds declared growth bound {bound:.6g}"
                )

    @property
    def n(self) -> int:
        return self.expansion.n

    @property
    def rep(self) -> Rep:
        return self.expansion.rep

    @property
    def lambda1(self) -> int:
        return highest_weight(self.rep)[0]

    @cached_property
    def _tail_counts(self) -> tuple[int, int, int]:
        """What ``tail_bound`` reads of the expansion at every Y: the first
        level it omits, the n(n+1)/2 entries of a symmetric matrix, and the
        number of Y^{-1} monomials of degree <= p."""
        f = self.expansion
        return last_level(f.level, f.t_max) + 1, f.n * (f.n + 1) // 2, multi_index_count(f.n, f.p)


@dataclass(frozen=True)
class PointEvaluator:
    """A V-valued function on the upper half space, with its representation.
    ``func`` maps a PointBatch to its (N, dim) values; a call on one
    SiegelPoint is the N = 1 case."""

    rep: Rep
    n: int
    func: Callable[[PointBatch], np.ndarray]

    def __call__(self, z: SiegelPoint) -> RepVector:
        return RepVector(self.rep, self.func(z.batch)[0])


def slash_values(f: FourierExpansion | FormPackage, g, points: PointBatch) -> np.ndarray:
    """rho(C Z + D)^{-1} F(gZ) as an (N, dim) array, for g one 2n x 2n
    matrix or an (N, 2n, 2n) stack and a batch of points (either side may
    have one element)."""
    f = f.expansion if isinstance(f, FormPackage) else f
    return _slash_parts(f, g, points)[2]


def _slash_parts(f: FourierExpansion, g, points: PointBatch):
    """(rho(C Z + D)^{-1}, gZ, rho(C Z + D)^{-1} F(gZ)) as in ``slash_values``."""
    j_inv = rep_matrix(f.rep, inv_stack(automorphy_factor(g, points)))
    moved = act(g, points)
    return j_inv, moved, (j_inv @ evaluate(f, moved)[..., None])[..., 0]


def slash(f: FourierExpansion | FormPackage, g: SymplecticMatrix) -> PointEvaluator:
    """The weight-rho slash action: Z -> rho(C Z + D)^{-1} F(gZ), for F an
    expansion or a package.  The result is a point evaluator; no
    re-expansion into Fourier data is performed."""
    return PointEvaluator(f.rep, f.n, partial(slash_values, f, g.mat))


def phi(f: FourierExpansion | FormPackage, z: SiegelPoint | PointBatch):
    """The invariant magnitude ||rho(Y^{1/2}) F(Z)||, or the array of it at
    every point of a PointBatch, read off Y = Q diag(mu) Q^T as
    ||D(mu) rho(Q^T) F(Z)|| (``magnitudes``)."""
    points = z.batch if isinstance(z, SiegelPoint) else z
    f = f.expansion if isinstance(f, FormPackage) else f
    out = magnitudes(f.rep, points, evaluate(f, points))
    return out if points is z else float(out[0])


def magnitudes(rep: Rep, points: PointBatch, values: np.ndarray) -> np.ndarray:
    """||rho(Y^{1/2}) v|| at every point of a batch, for its (N, dim) values v.
    With Y = Q diag(mu) Q^T, rho(Y^{1/2}) = rho(Q) D(mu) rho(Q^T), where D(mu)
    scales e^a by prod_i mu_i^{(a_i + k)/2} (``Rep.half_weights``).  For real
    orthogonal Q, rho(Q) is unitary for the invariant product and det(Q)^k is
    +-1, so the norm is ||D(mu) Sym^j(Q^T) v||, with Sym^0(Q^T) = 1.  Where a
    factor of D(mu) overflows, inf times a zero part of v is NaN; such a
    norm, and any other NaN one, is returned as +inf."""
    if points.n != rep.n:
        raise ValueError(f"point degree {points.n} does not match representation rank {rep.n}")
    if rep.dim > 1:
        q_t = points.eigvecs.swapaxes(-1, -2)
        values = (rep_matrix(_sym_part(rep), q_t) @ values[..., None])[..., 0]
    out = norms(rep, np.exp(np.log(points.eigvals) @ rep.half_weights) * values)
    return np.fmin(out, np.inf)  # NaN to +inf; every other value as it is


@cache
def _sym_part(rep: Rep) -> Rep:
    # Sym^j of rep, one instance per rep so that its rep_matrix table is built once.
    return Rep(rep.n, rep.j, 0)


def tail_bound(package: FormPackage, y):
    """Upper bound for the discarded series tail at imaginary part Y: a
    matrix Y, or a SiegelPoint; at every point of a PointBatch, as an array.

    Counts lattice matrices with Tr(N*S) = m by (2m+1)^(n(n+1)/2), bounds
    each coefficient by A (1 + m/N)^kappa, uses Tr(S Y) >= delta' Tr(S) with
    delta' the least eigenvalue of Y, and bounds every Y^{-1} monomial by
    max(1, delta'^-p) times the number of multi-indices.  The resulting
    one-dimensional series is summed until it provably closes.  A point
    supplies delta' from the eigenvalues it holds; a matrix is decomposed
    here, and a non-finite one or one under the floor raises ValueError.
    """
    if isinstance(y, (SiegelPoint, PointBatch)):
        points = y.batch if isinstance(y, SiegelPoint) else y
        if points.n != package.n:
            raise ValueError(f"point degree {points.n} does not match form degree {package.n}")
        tails = np.array([_tail_series(package, d) for d in points.eigvals[:, -1].tolist()])
        return tails if points is y else float(tails[0])
    y = np.asarray(y, dtype=float)
    if y.shape != (package.n, package.n):
        raise ValueError(f"Y of shape {y.shape} does not match form degree {package.n}")
    try:
        w = eigenvalues_sym(y).tolist()  # Python floats compare faster than numpy scalars
    except EigenIterationError:
        if not np.isfinite(y).all():  # checked here only: a finite Y costs nothing
            raise ValueError("Y has non-finite entries") from None
        raise
    if w[-1] <= _posdef_floor(w[0]):
        raise ValueError(f"tail estimate requires positive definite Y (min eigenvalue {w[-1]:.3e})")
    return _tail_series(package, w[-1])


def _tail_series(package: FormPackage, delta: float) -> float:
    # ``tail_bound`` at a Y whose least eigenvalue is delta, which input
    # checks have made positive: delta <= 0 is a numerical failure here.
    if delta <= 0.0:
        raise TailDivergenceError(
            f"tail estimate requires positive definite Y (min eigenvalue {delta:.3e})"
        )
    a_const = package.growth_a
    if a_const == 0.0:
        return 0.0
    p, level, kappa = package.expansion.p, package.expansion.level, package.growth_kappa
    first, r_slots, monomials = package._tail_counts
    c = _TWO_PI * delta / level
    e_c = math.exp(-c)
    total = 0.0
    try:
        for m in range(first, first + 200000):
            # The term at level m, then an upper bound for term(m'+1)/term(m')
            # over all m' >= m.  Both polynomial ratio factors decrease toward
            # 1, so capping the kappa factor at 1 from below keeps the bound
            # valid for negative kappa too.
            t = (2.0 * m + 1.0) ** r_slots * a_const * (1.0 + m / level) ** kappa
            t *= math.exp(-c * m)
            total += t
            poly = ((2.0 * m + 3.0) / (2.0 * m + 1.0)) ** r_slots
            kfac = ((level + m + 1.0) / (level + m)) ** kappa
            r_hat = poly * max(1.0, kfac) * e_c
            if r_hat < 1.0:
                rest = t * r_hat / (1.0 - r_hat)
                if not rest > 1e-16 * total:  # also true once a term is inf * 0 = NaN
                    bound = monomials * max(1.0, delta ** (-p)) * (total + rest)
                    if bound < math.inf:  # else a product overflowed to inf or NaN
                        return bound
                    raise OverflowError
    except OverflowError:
        raise TailDivergenceError(f"tail estimate overflows a float at level {m:.6g}") from None
    raise TailDivergenceError(
        "tail estimate did not stabilise within the iteration budget "
        f"(min eigenvalue of Y is {delta:.3e}; effectively too small)"
    )


@dataclass(frozen=True)
class InvarianceReport:
    """Outcome of checking the transformation law on sample points."""

    gammas: int
    samples: int
    max_deviation: float
    threshold: float
    violations: int

    @property
    def passed(self) -> bool:
        return self.violations == 0


def invariance_gammas(n: int, level: int) -> tuple[SymplecticMatrix, ...]:
    """The gamma that ``check_invariance`` samples for a form of degree n
    and level N: J (``inversion(n)``) at level 1, and J with the n(n+1)/2
    unit translations Z -> Z + B (B = E_ij + E_ji, or E_ii) at N > 1.

    J and the integral translations generate Sp_2n(Z) (Hua and Reiner,
    Trans. AMS 65, 1949).  At level 1 the translations hold exactly, so they
    are not sampled: every key S is integral, so Tr(S B) is an integer and
    e(Tr S(Z + B)) = e(Tr SZ), while Y and C Z + D = I do not move.  At
    level N the keys are N*S, and only translations by N B are exact."""
    gammas = [inversion(n)]
    if level > 1:
        for i, j in zip(*np.triu_indices(n)):
            b = np.zeros((n, n))
            b[i, j] = b[j, i] = 1.0
            gammas.append(translation(b))
    return tuple(gammas)


def check_invariance(
    package: FormPackage,
    samples: PointBatch | Sequence[SiegelPoint] | Iterable[PointBatch],
) -> InvarianceReport:
    """Measure the relative deviation of F|gamma from F on the samples, for
    every gamma of ``invariance_gammas(n, N)``: the library, not the form
    file, chooses them, and the report's ``gammas`` counts them (1 at level
    1).  The samples are one block (a PointBatch or a sequence of points) or
    an iterable of PointBatch blocks, reported as one batch holding every
    sample.

    Samples must satisfy Im(Z) >= identity/2, which keeps the truncation
    tail estimable; the per-sample threshold is the tail bound at Z and at
    gamma Z (scaled through the automorphy factor) plus a fixed
    floating-point allowance.  A NaN deviation or threshold is the maximum
    and no violation.  No sample is a ValueError."""
    gammas = invariance_gammas(package.n, package.expansion.level)
    if isinstance(samples, Sequence) and samples and isinstance(samples[0], SiegelPoint):
        samples = PointBatch.from_points(samples)
    rep, count, violations, deviation, threshold = package.rep, 0, 0, 0.0, 0.0
    for points in [samples] if isinstance(samples, PointBatch) else samples:
        if np.any(points.eigvals[:, -1] < 0.5 - 1e-9):
            raise ValueError("invariance samples must have Im(Z) >= identity/2")
        base = evaluate(package.expansion, points)
        base_tail = tail_bound(package, points)
        for g in gammas:
            j_inv, moved, slashed = _slash_parts(package.expansion, g.mat, points)
            devs = norms(rep, slashed - base) / (1.0 + norms(rep, base))
            amp = np.sqrt(np.sum(np.abs(j_inv) ** 2, axis=(1, 2)))
            thrs = base_tail + amp * tail_bound(package, moved) + FLOAT_FLOOR
            deviation, threshold = devs.max(initial=deviation), thrs.max(initial=threshold)
            violations += int(np.sum(devs > thrs))
        count += len(points)
    if not count:
        raise ValueError("an invariance check needs at least one sample")
    return InvarianceReport(
        gammas=len(gammas), samples=count, violations=violations,
        max_deviation=float(deviation), threshold=float(threshold),
    )
