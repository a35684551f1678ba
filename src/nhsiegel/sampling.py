"""Seeded random draws of matrices, upper-half-space points, and group
elements, used by the verification sweeps and the test suite.

Draws are made in blocks.  Each sample takes its draws from the stream in
a fixed order: the uniform X entries (n, n), the uniform log-eigenvalues of
Y (n,), the Gaussian (n, n) matrix whose orthonormalised columns rotate Y
and, for group samples, the real and then the imaginary Gaussian (n, n)
parts of the unitary behind the compact factor.  A block calls the
generator twice per sample, once for its uniform and once for its Gaussian
draws, and then runs all matrix work (orthonormalisation, exp, assembly,
symmetrisation, the compact blocks) once over the stack.  So a seed gives
the same samples whatever the block size, and the single-sample functions
are the N = 1 case.

Orthonormalisation is numpy's QR with each column of Q scaled by the phase
of R's diagonal entry (+1 for a zero entry): the Q of Gram-Schmidt, without
its rejection of degenerate draws, which have probability zero.
"""

from __future__ import annotations

import numpy as np

from .linalg import _t
from .symplectic import (
    PointBatch,
    SiegelPoint,
    SymplecticMatrix,
    compact_from_unitary,
    compact_from_unitary_batch,
    from_point_batch,
)

# The adversarial box of the growth sweeps: Y eigenvalues log-uniform in
# [EIG_LOW, EIG_HIGH], X entries uniform in [-X_SCALE, X_SCALE].
EIG_LOW, EIG_HIGH, X_SCALE = 1e-2, 1e2, 5.0

# The box of ``check`` as (eig_low, eig_high, x_scale).  Its least Y
# eigenvalue 0.75 keeps Im Z >= 1/2, which ``check_invariance`` requires.
CHECK_BOX = (0.75, 10.0, 2.0)


def _orthonormal(a: np.ndarray) -> np.ndarray:
    """The Gram-Schmidt Q of each matrix of a real or complex stack."""
    q, r = np.linalg.qr(a)
    d = np.diagonal(r, axis1=-2, axis2=-1)
    size = np.abs(d)
    phase = np.divide(d, size, out=np.ones_like(d), where=size != 0)
    return q * phase[..., None, :]


def _spd(log_mu: np.ndarray, gauss: np.ndarray) -> np.ndarray:
    """Q diag(exp(log_mu)) Q^T per sample, Q orthonormalised from gauss."""
    q = _orthonormal(gauss)
    y = (q * np.exp(log_mu)[:, None, :]) @ _t(q)
    return (y + _t(y)) / 2.0


def random_unitary(n: int, rng: np.random.Generator) -> np.ndarray:
    """Haar random unitary matrix: the Gram-Schmidt Q of a complex Gaussian
    draw (real part first)."""
    return _orthonormal(rng.standard_normal((1, n, n)) + 1j * rng.standard_normal((1, n, n)))[0]


def _draw_block(n, rng, count, eig_low, eig_high, x_scale, extra=0):
    """X and Y of ``count`` samples, and ``extra`` more Gaussian (n, n)
    draws per sample as a (count, extra, n, n) array, drawn in the stream
    order of the module docstring."""
    # Per sample, one call takes the consecutive uniform draws (X, then the
    # log-eigenvalues) and one the consecutive Gaussian ones; the uniform
    # draws are then scaled as ``Generator.uniform`` scales them.
    unif = np.empty((count, n * n + n))
    gauss = np.empty((count, 1 + extra, n, n))
    for i in range(count):
        rng.random(out=unif[i])
        rng.standard_normal(out=gauss[i])
    a = _scaled(unif[:, : n * n], -x_scale, x_scale).reshape(count, n, n)
    log_mu = _scaled(unif[:, n * n :], np.log(eig_low), np.log(eig_high))
    return (a + _t(a)) / 2.0, _spd(log_mu, gauss[:, 0]), gauss[:, 1:]


def _scaled(u: np.ndarray, low: float, high: float) -> np.ndarray:
    # Uniform draws on [0, 1) moved to [low, high) as Generator.uniform does.
    return low + (high - low) * u


def random_siegel_points(
    n: int,
    rng: np.random.Generator,
    count: int,
    eig_low: float = EIG_LOW,
    eig_high: float = EIG_HIGH,
    x_scale: float = X_SCALE,
) -> PointBatch:
    """``count`` adversarial points: Y eigenvalues log-uniform, X entries
    uniform."""
    x, y, _ = _draw_block(n, rng, count, eig_low, eig_high, x_scale)
    return PointBatch._made(x, y)


def random_siegel_point(
    n: int,
    rng: np.random.Generator,
    eig_low: float = EIG_LOW,
    eig_high: float = EIG_HIGH,
    x_scale: float = X_SCALE,
) -> SiegelPoint:
    """Adversarial point: Y eigenvalues log-uniform, X entries uniform."""
    return random_siegel_points(n, rng, 1, eig_low, eig_high, x_scale).point(0)


def random_group_samples(
    n: int,
    rng: np.random.Generator,
    count: int,
    eig_low: float = EIG_LOW,
    eig_high: float = EIG_HIGH,
    x_scale: float = X_SCALE,
) -> np.ndarray:
    """``count`` samples g = from_point(Z) k with adversarial Z and random
    compact k, as an (N, 2n, 2n) stack."""
    x, y, parts = _draw_block(n, rng, count, eig_low, eig_high, x_scale, extra=2)
    u = _orthonormal(parts[:, 0] + 1j * parts[:, 1])
    return from_point_batch(PointBatch._made(x, y)) @ compact_from_unitary_batch(u)


def random_compact(n: int, rng: np.random.Generator) -> SymplecticMatrix:
    """Random element of the standard maximal compact subgroup."""
    return compact_from_unitary(random_unitary(n, rng))

