"""Seeded random draws of matrices, upper-half-space points, and group
elements, used by the verification sweeps and the test suite."""

from __future__ import annotations

import numpy as np

from .linalg import det
from .symplectic import (
    PointBatch,
    SiegelPoint,
    SymplecticMatrix,
    compact_from_unitary,
    gl_embedding,
    inversion,
    translation,
)


def random_orthogonal(n: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-ish random orthogonal matrix via Gram-Schmidt on a Gaussian draw."""
    while True:
        a = rng.standard_normal((n, n))
        q = _gram_schmidt(a)
        if q is not None:
            return q


def random_unitary(n: int, rng: np.random.Generator) -> np.ndarray:
    while True:
        a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        q = _gram_schmidt(a)
        if q is not None:
            return q


def _gram_schmidt(a: np.ndarray):
    q = np.array(a, dtype=complex if np.iscomplexobj(a) else float)
    n = q.shape[0]
    for i in range(n):
        for j in range(i):
            q[:, i] -= np.vdot(q[:, j], q[:, i]) * q[:, j]
        nrm = np.sqrt(np.vdot(q[:, i], q[:, i]).real)
        if nrm < 1e-8:
            return None
        q[:, i] /= nrm
    return q


def random_spd(
    n: int,
    rng: np.random.Generator,
    eig_low: float = 1e-2,
    eig_high: float = 1e2,
) -> np.ndarray:
    """SPD matrix with eigenvalues log-uniform in [eig_low, eig_high]."""
    mu = np.exp(rng.uniform(np.log(eig_low), np.log(eig_high), size=n))
    q = random_orthogonal(n, rng)
    y = (q * mu) @ q.T
    return (y + y.T) / 2.0


def random_symmetric(n: int, rng: np.random.Generator, scale: float = 5.0) -> np.ndarray:
    a = rng.uniform(-scale, scale, size=(n, n))
    return (a + a.T) / 2.0


def random_siegel_points(
    n: int,
    rng: np.random.Generator,
    count: int,
    eig_low: float = 1e-2,
    eig_high: float = 1e2,
    x_scale: float = 5.0,
) -> PointBatch:
    """``count`` adversarial points, drawn one after another and stacked:
    Y eigenvalues log-uniform, X entries uniform."""
    draws = [
        (random_symmetric(n, rng, x_scale), random_spd(n, rng, eig_low, eig_high))
        for _ in range(count)
    ]
    return PointBatch(*map(np.stack, zip(*draws)))


def random_siegel_point(
    n: int,
    rng: np.random.Generator,
    eig_low: float = 1e-2,
    eig_high: float = 1e2,
    x_scale: float = 5.0,
) -> SiegelPoint:
    """Adversarial point: Y eigenvalues log-uniform, X entries uniform."""
    return random_siegel_points(n, rng, 1, eig_low, eig_high, x_scale).point(0)


def random_compact(n: int, rng: np.random.Generator) -> SymplecticMatrix:
    """Random element of the standard maximal compact subgroup."""
    return compact_from_unitary(random_unitary(n, rng))


def random_symplectic(
    n: int,
    rng: np.random.Generator,
    factors: int = 4,
) -> SymplecticMatrix:
    """Product of random translations, GL-embeddings, and inversions."""
    g = SymplecticMatrix.identity(n)
    for _ in range(factors):
        kind = rng.integers(0, 3)
        if kind == 0:
            g = g @ translation(random_symmetric(n, rng, scale=2.0))
        elif kind == 1:
            while True:
                u = rng.uniform(-2.0, 2.0, size=(n, n))
                if abs(float(det(u))) > 0.1:
                    break
            g = g @ gl_embedding(u)
        else:
            g = g @ inversion(n)
    return g
