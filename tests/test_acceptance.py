"""Acceptance suite.

Each test realises one acceptance criterion at its stated sample size and
tolerance and prints a single pass/fail line.  Run with:

    pytest tests/test_acceptance.py -v -s
"""

import math
import time

import numpy as np
import pytest

from conftest import multi_indices, random_symplectic
from nhsiegel.forms import check_invariance, evaluate, phi, tail_bound
from nhsiegel.growth import (
    SweepConfig,
    estimate_constant,
    lift,
    verify_growth_bound,
    verify_moderate_growth,
)
from nhsiegel.linalg import (
    eigh_sym,
    in_V_delta,
    inverse,
    monomial,
    sqrt_posdef,
)
from nhsiegel.reps import (
    apply,
    basis_vector,
    highest_weight,
    inner,
    make_rep,
    norm,
    vector,
)
from nhsiegel.samples import divisor_power_sum
from nhsiegel.sampling import (
    random_compact,
    random_siegel_point,
    random_unitary,
)
from nhsiegel.symplectic import (
    SiegelPoint,
    SymplecticMatrix,
    act,
    automorphy_factor,
    from_point,
    reduce_to_fundamental,
)

REP_PARAMS = [(1, 0, 4), (2, 2, 0), (2, 2, 1), (2, 0, 10)]


def report(num: int, description: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[{status}] criterion {num}: {description}{suffix}", flush=True)
    assert ok, f"criterion {num} failed: {description}{suffix}"


def _random_vector(rep, rng):
    return vector(rep, rng.standard_normal(rep.dim) + 1j * rng.standard_normal(rep.dim))


def _random_invertible(n, rng):
    while True:
        m = rng.uniform(-2, 2, size=(n, n)) + 1j * rng.uniform(-2, 2, size=(n, n))
        if abs(np.linalg.det(m)) > 0.2:
            return m


def test_criterion_01_linalg_kernel():
    rng = np.random.default_rng(101)
    t0 = time.perf_counter()
    failures = 0
    for i in range(1000):
        n = i % 4 + 1
        a = rng.uniform(-3, 3, size=(n, n))
        y = a @ a.T + np.exp(rng.uniform(-2, 2)) * np.eye(n)
        scale = 1.0 + np.max(np.abs(y))
        w, q = eigh_sym(y)
        if np.max(np.abs((q * w) @ q.T - y)) > 1e-10 * scale:
            failures += 1
        r = sqrt_posdef(y)
        if np.max(np.abs(r @ r - y)) > 1e-10 * scale:
            failures += 1
    elapsed = time.perf_counter() - t0
    report(
        1,
        "eigen/sqrt residuals <= 1e-10 relative over 1e3 SPD draws, < 5 s",
        failures == 0 and elapsed < 5.0,
        f"failures={failures}, {elapsed:.2f}s",
    )


def test_criterion_02_inverse_entry_bound():
    rng = np.random.default_rng(102)
    failures = 0
    for delta in (0.1, 1.0, 3.0):
        for i in range(1000):
            n = i % 4 + 1
            a = rng.uniform(-2, 2, size=(n, n))
            y = delta * np.eye(n) + a.T @ a
            if np.abs(inverse(y)).max() > 1.0 / delta + 1e-12:
                failures += 1
    p = 3
    betas = list(multi_indices(2, p))
    for delta in (0.1, 1.0):
        for _ in range(200):
            a = rng.uniform(-2, 2, size=(2, 2))
            y = delta * np.eye(2) + a.T @ a
            yinv = inverse(y)
            for beta in betas:
                if abs(monomial(yinv, beta)) > delta ** (-p) * (1.0 + 1e-9):
                    failures += 1
    report(
        2,
        "entries of Y^-1 bounded by 1/delta on V_delta, monomials by delta^-p",
        failures == 0,
        f"failures={failures}",
    )


def test_criterion_03_representation_suite():
    rng = np.random.default_rng(103)
    failures = 0
    for n, j, k in REP_PARAMS:
        rep = make_rep(n, j, k)
        for _ in range(1000):
            m1 = _random_invertible(n, rng)
            m2 = _random_invertible(n, rng)
            v = _random_vector(rep, rng)
            w = _random_vector(rep, rng)
            u = random_unitary(n, rng)

            lhs = apply(rep, m1 @ m2, v)
            rhs = apply(rep, m1, apply(rep, m2, v))
            if norm(lhs - rhs) > 1e-9 * (1.0 + norm(lhs)):
                failures += 1

            if abs(norm(apply(rep, u, v)) - norm(v)) > 1e-9 * (1.0 + norm(v)):
                failures += 1

            pair_l = inner(apply(rep, m1, v), w)
            pair_r = inner(v, apply(rep, m1.conj().T, w))
            if abs(pair_l - pair_r) > 1e-9 * (1.0 + abs(pair_l)):
                failures += 1
    report(
        3,
        "homomorphism / unitary invariance / adjoint identity, 1e3 draws per rep",
        failures == 0,
        f"failures={failures}",
    )


def test_criterion_04_weight_inequality_suite():
    rng = np.random.default_rng(104)
    failures = 0
    for n, j, k in REP_PARAMS:
        rep = make_rep(n, j, k)
        lam = highest_weight(rep)
        for _ in range(1000):
            a = rng.uniform(-2, 2, size=(n, n))
            y = a @ a.T + np.exp(rng.uniform(-3, 2)) * np.eye(n)
            mu = eigh_sym(y)[0]
            v = _random_vector(rep, rng)
            val = norm(apply(rep, y, v))
            lower = math.prod(float(mu[i]) ** lam[n - 1 - i] for i in range(n)) * norm(v)
            upper = math.prod(float(mu[i]) ** lam[i] for i in range(n)) * norm(v)
            if val < lower * (1.0 - 1e-9) or val > upper * (1.0 + 1e-9):
                failures += 1
        c = float(np.exp(rng.uniform(-1, 1)))
        v = _random_vector(rep, rng)
        val = norm(apply(rep, c * np.eye(n), v))
        expected = c ** sum(lam) * norm(v)
        if abs(val - expected) > 1e-12 * expected:
            failures += 1
    report(
        4,
        "eigenvalue-power pinch on ||rho(Y)v||, scalar case exact",
        failures == 0,
        f"failures={failures}",
    )


def test_criterion_05_symplectic_suite():
    rng = np.random.default_rng(105)
    failures = 0
    for i in range(1000):
        n = i % 2 + 1
        g1 = random_symplectic(n, rng)
        g2 = random_symplectic(n, rng)
        z = random_siegel_point(n, rng, eig_low=0.1, eig_high=10.0)
        lhs = automorphy_factor(g1 @ g2, z)
        rhs = automorphy_factor(g1, act(g2, z)) @ automorphy_factor(g2, z)
        if np.max(np.abs(lhs - rhs)) > 1e-9 * (1.0 + np.max(np.abs(lhs))):
            failures += 1

        w = act(g1, z)
        if eigh_sym(w.Y)[0][-1] <= 0:
            failures += 1

        k = random_compact(n, rng)
        size = np.linalg.norm(g1.mat)
        if abs(np.linalg.norm((g1 @ k).mat) - size) > 1e-9 * size:
            failures += 1
    report(
        5,
        "cocycle, half-space preservation, group-norm K-invariance, 1e3 draws",
        failures == 0,
        f"failures={failures}",
    )


def test_criterion_06_reduction():
    rng = np.random.default_rng(106)
    t0 = time.perf_counter()
    failures = 0
    floors = {1: math.sqrt(3) / 2 - 1e-9, 2: math.sqrt(3) / 4 - 1e-9}
    for n in (1, 2):
        for _ in range(10000):
            z = random_siegel_point(n, rng)
            gamma, z_red = reduce_to_fundamental(z)
            if np.max(np.abs(act(gamma, z).mat - z_red.mat)) > 1e-9:
                failures += 1
            if not in_V_delta(z_red.Y, floors[n], tol=1e-12):
                failures += 1
    elapsed = time.perf_counter() - t0
    report(
        6,
        "1e4 reductions per degree consistent and inside V_delta, < 60 s",
        failures == 0 and elapsed < 60.0,
        f"failures={failures}, {elapsed:.1f}s",
    )


def test_criterion_07_vertical_boundedness(e4_package, e2star_package):
    failures = 0

    def grid_sup(package, nx, ny):
        sup = 0.0
        for x in np.linspace(-0.5, 0.5, nx):
            for y in np.linspace(1.0, 10.0, ny):
                z = SiegelPoint(np.array([[float(x)]]), np.array([[float(y)]]))
                sup = max(sup, norm(evaluate(package.expansion, z)))
        return sup

    for package in (e4_package, e2star_package):
        coarse = grid_sup(package, 33, 31)
        fine = grid_sup(package, 101, 99)
        if not math.isfinite(coarse) or fine - coarse >= 1e-6:
            failures += 1

    rng = np.random.default_rng(107)
    for _ in range(200):
        y = float(rng.uniform(10.0, 60.0))
        x = float(rng.uniform(-0.5, 0.5))
        z = SiegelPoint(np.array([[x]]), np.array([[y]]))
        val = complex(evaluate(e4_package.expansion, z).coords[0])
        stored = sum(
            240.0 * divisor_power_sum(m, 3) * math.exp(-2 * math.pi * m * y)
            for m in range(1, 21)
        )
        certificate = stored + tail_bound(e4_package, np.array([[y]]))
        if certificate > 1e-8 or abs(val - 1.0) > 1e-8:
            failures += 1
    report(
        7,
        "vertical-region suprema stable; |E4 - 1| <= 1e-8 for y >= 10, certified",
        failures == 0,
        f"failures={failures}",
    )


def test_criterion_08_invariance(e4_package):
    rng = np.random.default_rng(108)
    samples = []
    for _ in range(100):
        x = float(rng.uniform(-0.5, 0.5))
        y = math.sqrt(3) / 2 + float(rng.uniform(0.0, 4.0))
        samples.append(SiegelPoint(np.array([[x]]), np.array([[y]])))
    rep = check_invariance(e4_package, samples)
    report(
        8,
        "weight-4 series invariance on 100 points (translation and inversion) <= 1e-6",
        rep.max_deviation <= 1e-6 and rep.violations == 0,
        f"max deviation {rep.max_deviation:.3e}",
    )


@pytest.fixture(scope="module")
def certified_constants(e4_package, e6_package, e2star_package):
    constants = {}
    for name, package in [("e4", e4_package), ("e6", e6_package), ("e2star", e2star_package)]:
        constants[name] = estimate_constant(package, SweepConfig(samples=10000, seed=109))
    return constants


def test_criterion_09_eigenvalue_bound_end_to_end(
    e4_package, e6_package, e2star_package, certified_constants
):
    failures = 0
    details = []
    for name, package in [("e4", e4_package), ("e6", e6_package), ("e2star", e2star_package)]:
        t0 = time.perf_counter()
        c = certified_constants[name]
        rep = verify_growth_bound(
            package, c, "theorem", config=SweepConfig(samples=10000, seed=110)
        )
        elapsed = time.perf_counter() - t0
        if rep.violations != 0 or elapsed >= 120.0:
            failures += 1
        details.append(f"{name}: C={c:.4f} worst={rep.worst_ratio:.3f} {elapsed:.0f}s")
    negative = verify_growth_bound(
        e4_package, 1e-6, "theorem", config=SweepConfig(samples=1000, seed=111)
    )
    if negative.violations == 0:
        failures += 1
    report(
        9,
        "estimated constants certify the eigenvalue bound on fresh 1e4 sweeps",
        failures == 0,
        "; ".join(details) + f"; negative control violations={negative.violations}",
    )


def test_criterion_10_trace_bound_and_elementary_inequality(
    e4_package, e6_package, e2star_package, certified_constants
):
    failures = 0
    for name, package in [("e4", e4_package), ("e6", e6_package), ("e2star", e2star_package)]:
        rep = verify_growth_bound(
            package,
            certified_constants[name],
            "corollary",
            config=SweepConfig(samples=10000, seed=112),
        )
        if rep.violations != 0:
            failures += 1
    rng = np.random.default_rng(113)
    for _ in range(10000):
        n = int(rng.integers(1, 5))
        ys = np.exp(rng.uniform(-4, 4, size=n))
        for lam in range(1, 7):
            if float(np.prod(1.0 + ys ** lam)) > (1.0 + float(np.sum(ys))) ** (n * lam) * (
                1.0 + 1e-12
            ):
                failures += 1
    report(
        10,
        "trace/determinant bound on the same sweeps; product inequality on 1e4 tuples",
        failures == 0,
        f"failures={failures}",
    )


def test_criterion_11_moderate_growth(e4_package, certified_constants):
    c = certified_constants["e4"]
    w0 = basis_vector(e4_package.rep, 0)
    cfg = SweepConfig(samples=10000, seed=114)
    rep = verify_moderate_growth(e4_package, w0, c, config=cfg)
    rays = [SymplecticMatrix(np.diag([float(t), 1.0 / t])) for t in (2, 4, 8, 16, 32, 64)]
    ray_rep = verify_moderate_growth(e4_package, w0, c, elements=rays, config=SweepConfig(samples=1, seed=0))
    # Tr(g^T g) >= 2n > 1 on every swept element, so the inequality at
    # r = n lambda1 / 2 = 2 implies it at every larger r.
    least_trace = min(np.sum(s.records.where**2, axis=(1, 2)).min() for s in (rep, ray_rep))
    report(
        11,
        "|Phi(g)| <= C Tr(g^T g)^2 over 1e4 group samples and the diagonal ray, "
        "where Tr(g^T g) >= 2",
        rep.violations == 0 and ray_rep.violations == 0 and least_trace >= 2.0 * (1.0 - 1e-12),
        f"worst={rep.worst_ratio:.3f}, ray worst={ray_rep.worst_ratio:.3f}, "
        f"least trace={least_trace:.3f}",
    )


def test_criterion_12_lift_consistency(e4_package, sym2_package):
    rng = np.random.default_rng(115)
    failures = 0
    for package, n in [(e4_package, 1), (sym2_package, 2)]:
        for _ in range(1000):
            z = random_siegel_point(n, rng)
            val = norm(lift(package, from_point(z)))
            expected = phi(package, z)
            if abs(val - expected) > 1e-9 * max(expected, 1e-300):
                failures += 1
    report(
        12,
        "||lift(F, from_point(Z))|| matches phi(F, Z) to 1e-9 over 1e3 draws per degree",
        failures == 0,
        f"failures={failures}",
    )
