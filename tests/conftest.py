import itertools
from typing import Iterator

import numpy as np
import pytest

from nhsiegel.linalg import MultiIndex, _as_square, det, eigenvalues_sym, inverse
from nhsiegel.samples import (
    constant_form,
    e2_star,
    eisenstein4,
    eisenstein6,
    synthetic_sym2,
    zero_form,
)
from nhsiegel.symplectic import SymplecticMatrix, inversion, translation


@pytest.fixture(scope="session")
def e4_package():
    return eisenstein4()


@pytest.fixture(scope="session")
def e6_package():
    return eisenstein6()


@pytest.fixture(scope="session")
def e2star_package():
    return e2_star()


@pytest.fixture(scope="session")
def sym2_package():
    return synthetic_sym2()


@pytest.fixture(scope="session")
def constant_package():
    return constant_form(2.0 - 1.0j)


@pytest.fixture(scope="session")
def zero_package():
    return zero_form()


@pytest.fixture
def rng():
    return np.random.default_rng(20260808)


# Generators only the tests use, imported with ``from conftest import ...``.
# Seeded tests depend on their exact stream of draws.


def random_symmetric(n: int, rng: np.random.Generator, scale: float = 5.0) -> np.ndarray:
    a = rng.uniform(-scale, scale, size=(n, n))
    return (a + a.T) / 2.0


def gl_embedding(u) -> SymplecticMatrix:
    """The element (u 0; 0 u^-T) acting by Z -> u Z u^T, for invertible u."""
    u = np.asarray(u, dtype=float)
    u = _as_square(u, "gl block")
    n = u.shape[0]
    m = np.zeros((2 * n, 2 * n))
    m[:n, :n] = u
    m[n:, n:] = inverse(u).T
    return SymplecticMatrix(m)


def random_symplectic(
    n: int,
    rng: np.random.Generator,
    factors: int = 4,
) -> SymplecticMatrix:
    """Product of random translations, GL-embeddings, and inversions."""
    g = SymplecticMatrix(np.eye(2 * n))
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


def in_V_delta(y, delta: float, tol: float = 1e-12) -> bool:
    """Whether y >= delta * identity, i.e. min eigenvalue >= delta (up to tol)."""
    return float(eigenvalues_sym(y)[-1]) >= delta - tol


def multi_indices(n: int, p: int) -> Iterator[MultiIndex]:
    """All multi-indices with total degree <= p, in a fixed order."""
    pairs = [(i, j) for i in range(1, n + 1) for j in range(i, n + 1)]
    for total in range(p + 1):
        for combo in itertools.combinations_with_replacement(pairs, total):
            counts: dict[tuple[int, int], int] = {}
            for pair in combo:
                counts[pair] = counts.get(pair, 0) + 1
            yield MultiIndex.from_dict(n, counts)
